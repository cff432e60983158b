"""Built-in parametric families with their designated critical points.

Each entry bundles a model (structural-constant data, or a pre-reduced chart
when only the reduced form is known), the critical point in chart
coordinates, the Hessian-kernel direction to probe along, and the expected
third derivative in closed form.  Four families are provided:

  e6_su2_so6      two-summand quotient of E6; one chart variable
  su_n            the compact unitary group, n >= 3, as a three-summand space
  su2n_mod_spn    the quaternionic quotient SU(2n)/Sp(n), n >= 3, in reduced
                  form at its irrational unit-volume normalizer a
  so2n_flag       the full flag manifold SO(2n)/T^n, n >= 4, collapsed to the
                  two-parameter subfamily that carries the computation

For every entry the probe along the kernel direction yields S1 = S2 = 0 and
S3 != 0, so none of these Einstein metrics is a local maximum of the scalar
curvature on the unit-volume slice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .chart import SliceChart, restrict
from .probe import CurveSpec
from .signomial import Signomial
from .space import HomogeneousSpace, space_from_dict, _as_array, _as_fraction, _as_int

FAMILIES: dict[str, dict] = {
    "e6_su2_so6": {
        "min_n": None,
        "description": "two-summand E6 quotient, standard metric; fixed size",
    },
    "su_n": {
        "min_n": 3,
        "description": "compact unitary group, left-invariant metrics, n >= 3",
    },
    "su2n_mod_spn": {
        "min_n": 3,
        "description": "quaternionic quotient SU(2n)/Sp(n), symmetric metric, n >= 3",
    },
    "so2n_flag": {
        "min_n": 4,
        "description": "full flag manifold SO(2n)/T^n, standard metric, n >= 4",
    },
}


class ParameterRangeError(ValueError):
    """The family parameter lies outside the validity range."""


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    n: "int | None"
    space: "HomogeneousSpace | None"
    chart: SliceChart
    critical_point: tuple
    kernel_direction: tuple
    expected_s3: "Fraction | float | None"

    def curve(self) -> CurveSpec:
        return CurveSpec(base=self.critical_point, direction=self.kernel_direction)


def _require_n(family: str, n: "int | None") -> int:
    info = FAMILIES[family]
    if n is None:
        raise ParameterRangeError(f"{family} needs a parameter n >= {info['min_n']}")
    n = int(n)
    if n < info["min_n"]:
        raise ParameterRangeError(
            f"{family} requires n >= {info['min_n']}, got {n}"
        )
    return n


def e6_space() -> HomogeneousSpace:
    return HomogeneousSpace(
        name="e6_su2_so6", dims=(20, 40), triples={(0, 1, 1): Fraction(10)}
    )


def su_n_space(n: int) -> HomogeneousSpace:
    return HomogeneousSpace(
        name=f"su_{n}",
        dims=((n - 1) ** 2 - 1, 2 * (n - 1), 1),
        triples={
            (0, 0, 0): Fraction((n - 1) * (n - 2)),
            (0, 1, 1): Fraction(n - 2),
            (1, 1, 2): Fraction(1),
        },
    )


def collapsed_so2n_constants(n: int) -> dict[tuple[int, int, int], Fraction]:
    """Aggregate constants of the two-summand collapse of SO(2n)/T^n.

    Block x spans the n-1 root planes touching the first torus factor, block
    y the remaining (n-1)(n-2)/2 planes.  Summing the elementary triangle
    constant 2/(n-1) over the triangles meeting each block combination gives
    [xxy] = 2(n-2) and [yyy] = 2(n-2)(n-3); all other triples vanish.
    """
    if n < 4:
        raise ParameterRangeError(f"so2n_flag requires n >= 4, got {n}")
    return {
        (0, 0, 1): Fraction(2 * (n - 2)),
        (1, 1, 1): Fraction(2 * (n - 2) * (n - 3)),
    }


def so2n_flag_space(n: int) -> HomogeneousSpace:
    return HomogeneousSpace(
        name=f"so{2 * n}_flag_collapsed",
        dims=(4 * (n - 1), 2 * (n - 1) * (n - 2)),
        triples=collapsed_so2n_constants(n),
    )


def su2n_volume_normalizer(n: int) -> float:
    """The scale a with unit volume at the symmetric metric (a, a/2, na/(2n-1))."""
    return float(Fraction(16 * n, (2 * n - 1) * 16 ** n)) ** (
        1.0 / (n + 1 - 2 * n * n)
    )


def su2n_reduced_chart(n: int) -> SliceChart:
    """Reduced scalar curvature of SU(2n)/Sp(n) with the one-dimensional
    summand eliminated; only this reduced form is modeled, the full
    three-summand constant table is not reconstructible from it."""
    d1 = (2 * n - 1) * (n - 2)
    d2 = 4 * (n - 1)
    c = Fraction(2 * n - 1)
    reduced = Signomial.from_terms(
        2,
        [
            (c * 4 * (n - 1) * (n - 2), {0: -1}),
            (c * 8 * (n - 1), {1: -1}),
            (-c * (n - 2), {0: 1, 1: -2}),
            (-c, {0: -d1, 1: -(4 * n - 2)}),
        ],
    )
    return SliceChart(
        label=f"su{2 * n}_mod_sp{n}",
        dims=(d1, d2, 1),
        eliminated=2,
        reduced=reduced,
    )


def build(family: str, n: "int | None" = None) -> CatalogEntry:
    """Construct a catalog entry; raises ParameterRangeError outside validity."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    if family == "e6_su2_so6":
        space = e6_space()
        return CatalogEntry(
            family=family,
            n=None,
            space=space,
            chart=restrict(space, eliminated=0),
            critical_point=(Fraction(1),),
            kernel_direction=(Fraction(1),),
            expected_s3=Fraction(180),
        )
    n = _require_n(family, n)
    if family == "su_n":
        space = su_n_space(n)
        return CatalogEntry(
            family=family,
            n=n,
            space=space,
            chart=restrict(space, eliminated=2),
            critical_point=(Fraction(1), Fraction(1)),
            kernel_direction=(Fraction(-2, n - 2), Fraction(1)),
            expected_s3=Fraction(n * n * (n - 1), (n - 2) ** 2),
        )
    if family == "so2n_flag":
        space = so2n_flag_space(n)
        return CatalogEntry(
            family=family,
            n=n,
            space=space,
            chart=restrict(space, eliminated=1),
            critical_point=(Fraction(1),),
            kernel_direction=(Fraction(1),),
            expected_s3=Fraction(2 * n * n * (n - 1), (n - 2) ** 2),
        )
    # su2n_mod_spn
    a = su2n_volume_normalizer(n)
    expected = -2.0 * n * n * (n - 2) * (2 * n - 1) * (n - 1) / a ** 4
    return CatalogEntry(
        family=family,
        n=n,
        space=None,
        chart=su2n_reduced_chart(n),
        critical_point=(a, a / 2.0),
        kernel_direction=(Fraction(1), Fraction(-(n - 2), 4)),
        expected_s3=expected,
    )


def default_parameters(family: str) -> list["int | None"]:
    return {
        "e6_su2_so6": [None],
        "su_n": list(range(3, 11)),
        "so2n_flag": list(range(4, 9)),
        "su2n_mod_spn": list(range(3, 7)),
    }[family]


def default_entries() -> list[CatalogEntry]:
    """The standard reproduction set: one entry per in-range (family, n)."""
    out = []
    for family in sorted(FAMILIES):
        for n in default_parameters(family):
            out.append(build(family, n))
    return out


# -- custom entries from space files ---------------------------------------------

_EXTRA_KEYS = {"critical_point", "kernel_direction", "expected_s3", "eliminate"}


def _parse_coord(value, where: str):
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{where}: expected a finite number, got {value}")
        return value
    return _as_fraction(value, where)


def _parse_coords(extras: Mapping, key: str, path, arity: int) -> "tuple | None":
    """The hint `key` as a tuple of `arity` coordinates, or None when absent."""
    if key not in extras:
        return None
    values = _as_array(extras[key], f"{path}.{key}")
    if len(values) != arity:
        raise ValueError(f"{path}.{key}: has {len(values)} entries for {arity} chart coordinates")
    return tuple(_parse_coord(v, f"{path}.{key}[{i}]") for i, v in enumerate(values))


def load_custom(path) -> CatalogEntry:
    """Read a space file with optional critical-point, kernel and S3 hints.

    A file with fewer than two summands is a ValueError naming the file.
    A missing critical point or kernel direction stays None (the caller
    runs the slice search).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, Mapping):
        raise ValueError(f"{path}: expected a JSON object")
    extras = {k: data[k] for k in _EXTRA_KEYS if k in data}
    space = space_from_dict(
        {k: v for k, v in data.items() if k not in _EXTRA_KEYS}, where=str(path)
    )
    if len(space.dims) < 2:
        # the unit-volume slice of one summand is a single metric: no chart to search
        raise ValueError(f"{path}: needs at least two summands, got {len(space.dims)}")
    issues = space.validate()
    if issues:
        raise ValueError(f"{path}: " + "; ".join(issues))
    eliminated = extras.get("eliminate")
    sl = restrict(space, None if eliminated is None else _as_int(eliminated, f"{path}.eliminate"))

    point = _parse_coords(extras, "critical_point", path, sl.arity)
    direction = _parse_coords(extras, "kernel_direction", path, sl.arity)
    if direction is not None and not any(direction):
        raise ValueError(f"{path}.kernel_direction: direction must be nonzero")

    expected = None
    if "expected_s3" in extras:
        expected = _parse_coord(extras["expected_s3"], f"{path}.expected_s3")
    return CatalogEntry(
        family=space.name,
        n=None,
        space=space,
        chart=sl,
        critical_point=point,
        kernel_direction=direction,
        expected_s3=expected,
    )
