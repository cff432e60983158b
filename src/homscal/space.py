"""Compact homogeneous spaces described by isotropy-summand data.

A space is a list of summand dimensions d_k, Casimir coefficients b_k and a
table of structural constants [ijk] indexed by unordered multisets {i,j,k}.
From these the invariant scalar curvature of a diagonal metric
(x_1, ..., x_r) is assembled exactly as a signomial:

    scal = 1/2 * sum_k b_k d_k / x_k  -  1/4 * sum_{i,j,k} [ijk] x_k/(x_i x_j)

where the triple sum runs over ordered index triples.  The table stores one
value per unordered multiset, so each entry enters with its orbit size (6
when i, j, k are distinct, 3 when exactly two coincide, 1 when all three
coincide).
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .signomial import Rat, Signomial

TripleKey = tuple[int, int, int]


def _as_fraction(value, where: str) -> Fraction:
    if isinstance(value, float):
        raise ValueError(f"{where}: floats are not exact, pass 'p/q' or an int")
    if isinstance(value, bool):  # an int subclass, but not a number in a space file
        raise ValueError(f"{where}: bad rational {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: bad rational {value!r} ({exc})") from None


def _as_int(value, where: str) -> int:
    # bool is an int subclass, and int() would truncate floats and split strings
    if not isinstance(value, bool):
        try:
            return operator.index(value)  # an int, or an integer type such as numpy's
        except TypeError:
            pass
    raise ValueError(f"{where}: expected an integer, got {value!r}")


def _as_array(value, where: str) -> list:
    # a string or an object would otherwise be iterated as if it were an array
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where}: expected an array, got {value!r}")
    return value


@dataclass(frozen=True)
class HomogeneousSpace:
    """Summand data (d_k, b_k, [ijk]) for a compact homogeneous space."""

    name: str
    dims: tuple[int, ...]
    b: "tuple[Fraction, ...] | None" = None  # None: all ones
    triples: Mapping[TripleKey, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(_as_int(d, f"{self.name}.dims") for d in self.dims))
        b = (1,) * len(self.dims) if self.b is None else self.b
        object.__setattr__(self, "b", tuple(Fraction(v) for v in b))
        object.__setattr__(
            self,
            "triples",
            {
                tuple(_as_int(i, f"{self.name}.triples") for i in key): Fraction(v)
                for key, v in self.triples.items()
            },
        )

    @property
    def r(self) -> int:
        return len(self.dims)

    def validate(self) -> list[str]:
        """Check all type invariants; return a list of violations (empty = ok)."""
        issues: list[str] = []
        if self.r < 1:
            issues.append("space needs at least one summand")
        for k, d in enumerate(self.dims):
            if d <= 0:
                issues.append(f"dims[{k}] = {d} is not a positive integer")
        if len(self.b) != self.r:
            issues.append(f"b has {len(self.b)} entries for {self.r} summands")
        for k, v in enumerate(self.b):
            if v <= 0:
                issues.append(f"b[{k}] = {v} is not positive")
        seen: dict[TripleKey, tuple[TripleKey, Fraction]] = {}
        for key, v in self.triples.items():
            if len(key) != 3:
                issues.append(f"triple key {key} is not an index triple")
                continue
            if any(not 0 <= i < self.r for i in key):
                issues.append(f"triple {key} has an index outside [0, {self.r})")
                continue
            if v < 0:
                issues.append(f"[{key}] = {v} is negative")
            canon = tuple(sorted(key))
            if canon in seen and seen[canon][1] != v:
                other = seen[canon][0]
                issues.append(
                    f"triples {other} and {key} are permutations with different "
                    f"values {seen[canon][1]} != {v}"
                )
            else:
                seen.setdefault(canon, (key, v))
        return issues

    def canonical_triples(self) -> dict[TripleKey, Fraction]:
        """Triple table keyed by sorted multisets; requires a valid space."""
        issues = self.validate()
        if issues:
            raise ValueError("invalid space: " + "; ".join(issues))
        out: dict[TripleKey, Fraction] = {}
        for key, v in self.triples.items():
            if v != 0:
                out[tuple(sorted(key))] = v
        return out

    def scalar_curvature(self) -> Signomial:
        """The invariant scalar curvature as an exact signomial in r variables."""
        r = self.r
        pairs: list[tuple[Fraction, dict[int, Rat]]] = []
        for k in range(r):
            pairs.append((Fraction(self.b[k]) * self.dims[k] / 2, {k: -1}))
        for key, v in self.canonical_triples().items():
            c = -v / 4
            for i, j, k in set(itertools.permutations(key)):
                exps = {k: 1}
                exps[i] = exps.get(i, 0) - 1
                exps[j] = exps.get(j, 0) - 1
                pairs.append((c, exps))
        return Signomial.from_terms(r, pairs)


# -- structured-text space files ------------------------------------------------


def space_from_dict(data: Mapping, where: str = "space") -> HomogeneousSpace:
    if not isinstance(data, Mapping):
        raise ValueError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - {"name", "dims", "b", "triples"}
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    name = data.get("name", "custom")
    dims = data.get("dims")
    if not isinstance(dims, (list, tuple)) or not dims:
        raise ValueError(f"{where}.dims: expected a nonempty list of integers")
    dims = tuple(_as_int(d, f"{where}.dims[{k}]") for k, d in enumerate(dims))
    b = data.get("b")
    if b is not None:  # an explicit b, even an empty one, is checked by validate
        b = tuple(_as_fraction(v, f"{where}.b[{i}]")
                  for i, v in enumerate(_as_array(b, f"{where}.b")))
    seen: dict[TripleKey, tuple[int, Fraction]] = {}  # key -> (first entry, value)
    for t, entry in enumerate(_as_array(data.get("triples", []), f"{where}.triples")):
        loc = f"{where}.triples[{t}]"
        if not isinstance(entry, Mapping) or not {"i", "j", "k", "value"} <= set(entry):
            raise ValueError(f"{loc}: expected an object with keys i, j, k, value")
        key = tuple(_as_int(entry[c], f"{loc}.{c}") for c in "ijk")
        value = _as_fraction(entry["value"], f"{loc}.value")
        t0, v0 = seen.setdefault(key, (t, value))
        if v0 != value:
            raise ValueError(f"{where}: triples[{t0}] and triples[{t}] repeat {key} "
                             f"with different values {v0} != {value}")
    triples = {key: v for key, (_, v) in seen.items()}
    return HomogeneousSpace(name=str(name), dims=dims, b=b, triples=triples)


def space_to_dict(space: HomogeneousSpace) -> dict:
    return {
        "name": space.name,
        "dims": list(space.dims),
        "b": [str(v) for v in space.b],
        "triples": [
            {"i": i, "j": j, "k": k, "value": str(v)}
            for (i, j, k), v in sorted(space.triples.items())
        ],
    }


def load_space(path) -> HomogeneousSpace:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return space_from_dict(data, where=str(path))
