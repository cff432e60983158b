"""Scalar curvature of compact homogeneous spaces, exactly.

Exact signomial algebra for the invariant scalar curvature functional,
unit-volume slice charts, Einstein critical-point classification, and
third-order inflection certificates showing that degenerate critical points
are not local maxima.
"""

from .signomial import ExactEvaluationError, Signomial, rational_pow
from .space import (
    HomogeneousSpace,
    load_space,
    space_from_dict,
    space_to_dict,
)
from .chart import (
    Classification,
    CriticalPoint,
    SliceChart,
    find_critical_points,
    jacobi_eigh,
    newton_critical,
    restrict,
)
from .probe import (
    CurveSpec,
    ProbeResult,
    Verdict,
    directional_derivatives,
    fd_check,
    improving_offset,
    inflection_verdict,
    probe_chart,
    suggest_fd_step,
)
from .catalog import (
    FAMILIES,
    CatalogEntry,
    ParameterRangeError,
    build,
    collapsed_so2n_constants,
    default_entries,
    load_custom,
)
from .flow import FlowError, Trajectory, integrate_ascent, write_trajectory_csv
from . import lie_constants

__version__ = "0.1.0"

__all__ = [
    "ExactEvaluationError",
    "Signomial",
    "rational_pow",
    "HomogeneousSpace",
    "load_space",
    "space_from_dict",
    "space_to_dict",
    "Classification",
    "CriticalPoint",
    "SliceChart",
    "find_critical_points",
    "jacobi_eigh",
    "newton_critical",
    "restrict",
    "CurveSpec",
    "ProbeResult",
    "Verdict",
    "directional_derivatives",
    "fd_check",
    "improving_offset",
    "inflection_verdict",
    "probe_chart",
    "suggest_fd_step",
    "FAMILIES",
    "CatalogEntry",
    "ParameterRangeError",
    "build",
    "collapsed_so2n_constants",
    "default_entries",
    "load_custom",
    "FlowError",
    "Trajectory",
    "integrate_ascent",
    "write_trajectory_csv",
    "lie_constants",
    "__version__",
]
