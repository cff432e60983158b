"""Built-in parametric families with their designated critical points.

FAMILIES is the one table of the catalog: each family is one Family record
with its floor on n, the description `list` prints, the n of the default
report, and make(n), which gives the space, the summand its chart
eliminates, the critical point in chart coordinates, the Hessian-kernel
direction to probe along, and the expected third derivative in closed form.
build, default_entries and the CLI read nothing else.  Four families are
provided:

  e6_su2_so6      two-summand quotient of E6; one chart variable
  su_n            the compact unitary group, n >= 3, as a three-summand space
  su2n_mod_spn    the quaternionic quotient SU(2n)/Sp(n), n >= 3, as a
                  three-summand space, at its irrational unit-volume
                  normalizer a
  so2n_flag       the full flag manifold SO(2n)/T^n, n >= 4, collapsed to the
                  two-parameter subfamily that carries the computation

For every entry the probe along the kernel direction yields S1 = S2 = 0 and
S3 != 0, so none of these Einstein metrics is a local maximum of the scalar
curvature on the unit-volume slice.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .chart import SliceChart, restrict
from .probe import CurveSpec
from .signomial import _as_int
from .space import HomogeneousSpace, space_from_dict, _as_array, _as_fraction


class ParameterRangeError(ValueError):
    """The family parameter lies outside the validity range."""


@dataclass(frozen=True)
class CatalogEntry:
    family: str
    n: "int | None"
    space: HomogeneousSpace
    chart: SliceChart
    critical_point: tuple
    kernel_direction: tuple
    expected_s3: "Fraction | float | None"

    def curve(self) -> CurveSpec:
        return CurveSpec(base=self.critical_point, direction=self.kernel_direction)


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
    floor = FAMILIES["so2n_flag"].min_n
    if n < floor:
        raise ParameterRangeError(f"so2n_flag requires n >= {floor}, got {n}")
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


def su2n_space(n: int) -> HomogeneousSpace:
    """SU(2n)/Sp(n) presented by a group one rank down, with Q divided by
    4(2n-1): every b_k and [ijk] of the table b = 1, [011] = n-2, [112] = 1
    is multiplied by 4(2n-1)."""
    c = 4 * (2 * n - 1)
    return HomogeneousSpace(
        name=f"su{2 * n}_mod_sp{n}",
        dims=((2 * n - 1) * (n - 2), 4 * (n - 1), 1),
        b=(c, c, c),
        triples={(0, 1, 1): Fraction(c * (n - 2)), (1, 1, 2): Fraction(c)},
    )


def su2n_volume_normalizer(n: int) -> float:
    """The scale a with unit volume at the symmetric metric (a, a/2, na/(2n-1))."""
    return float(Fraction(16 * n, (2 * n - 1) * 16 ** n)) ** (
        1.0 / (n + 1 - 2 * n * n)
    )


class Family(NamedTuple):
    """One catalog family.  min_n is the floor on n, None for a fixed size
    that takes no n; defaults are the n of the default report; make(n)
    returns (space, eliminated summand, critical point, kernel direction,
    expected S3)."""

    min_n: "int | None"
    description: str
    defaults: tuple
    make: Callable


def _e6_su2_so6(n):
    return e6_space(), 0, (Fraction(1),), (Fraction(1),), Fraction(180)


def _su_n(n):
    return (su_n_space(n), 2, (Fraction(1), Fraction(1)), (Fraction(-2, n - 2), Fraction(1)),
            Fraction(n * n * (n - 1), (n - 2) ** 2))


def _so2n_flag(n):
    return (so2n_flag_space(n), 1, (Fraction(1),), (Fraction(1),),
            Fraction(2 * n * n * (n - 1), (n - 2) ** 2))


def _su2n_mod_spn(n):
    a = su2n_volume_normalizer(n)
    expected = -2.0 * n * n * (n - 2) * (2 * n - 1) * (n - 1) / a ** 4
    return su2n_space(n), 2, (a, a / 2.0), (Fraction(1), Fraction(-(n - 2), 4)), expected


FAMILIES: dict[str, Family] = {
    "e6_su2_so6": Family(
        None, "two-summand E6 quotient, standard metric; fixed size", (None,), _e6_su2_so6
    ),
    "su_n": Family(
        3, "compact unitary group, left-invariant metrics, n >= 3", tuple(range(3, 11)), _su_n
    ),
    "su2n_mod_spn": Family(
        3, "quaternionic quotient SU(2n)/Sp(n), symmetric metric, n >= 3", tuple(range(3, 7)),
        _su2n_mod_spn,
    ),
    "so2n_flag": Family(
        4, "full flag manifold SO(2n)/T^n, standard metric, n >= 4", tuple(range(4, 9)), _so2n_flag
    ),
}


def build(family: str, n: "int | None" = None) -> CatalogEntry:
    """Construct a catalog entry; raises ParameterRangeError outside validity
    (an n given to a fixed-size family, or an n that is not an integer,
    included)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    floor = FAMILIES[family].min_n
    if floor is None:
        if n is not None:
            raise ParameterRangeError(f"{family} has a fixed size and takes no n, got {n}")
    elif n is None:
        raise ParameterRangeError(f"{family} needs a parameter n >= {floor}")
    elif isinstance(n, bool) or not isinstance(n, numbers.Integral):
        # int() would truncate 3.7 to 3 and read "5" as 5
        raise ParameterRangeError(f"{family} needs an integer n, got {n!r}")
    elif n < floor:
        raise ParameterRangeError(f"{family} requires n >= {floor}, got {n}")
    else:
        n = int(n)
    space, eliminated, point, direction, expected = FAMILIES[family].make(n)
    return CatalogEntry(
        family=family,
        n=n,
        space=space,
        chart=restrict(space, eliminated),
        critical_point=point,
        kernel_direction=direction,
        expected_s3=expected,
    )


def default_entries() -> list[CatalogEntry]:
    """The standard reproduction set: one entry per (family, n) of the
    families' defaults."""
    return [build(family, n) for family in sorted(FAMILIES) for n in FAMILIES[family].defaults]


# -- custom entries from space files ---------------------------------------------

_EXTRA_KEYS = {"critical_point", "kernel_direction", "expected_s3", "eliminate"}


def _parse_coord(value, where: str):
    """A hint entry, a float as given or else a Fraction, whose double is finite."""
    number = value if isinstance(value, float) else _as_fraction(value, where)
    try:
        if math.isfinite(float(number)):
            return number
    except OverflowError:
        pass
    raise ValueError(f"{where}: expected a finite number (as a double), got {value}")


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
    Each hint entry must be a finite double, the critical point positive and
    the kernel direction nonzero as doubles, or the ValueError names the field.
    A missing critical point or kernel direction stays None (the caller runs
    the slice search).
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
    if point is not None and min(map(float, point)) <= 0:
        raise ValueError(f"{path}.critical_point: must be strictly positive as doubles")
    direction = _parse_coords(extras, "kernel_direction", path, sl.arity)
    if direction is not None and not any(map(float, direction)):
        raise ValueError(f"{path}.kernel_direction: direction must be nonzero as a double")

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
