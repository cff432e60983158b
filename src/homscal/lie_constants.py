"""Exact structural constants from integer matrix bases.

Take a basis X_1, ..., X_m of a compact simple matrix Lie algebra that is
orthogonal for Q(X, Y) = -tr(XY), and a partition of it into the summands of
a reductive decomposition.  For the normal metric -B (B the Killing form) the
constant attached to summands (i, j, k) is

    [ijk] = λ⁻¹ Σ Q([X_a, X_b], X_c)² / (Q_a Q_b Q_c)

summed over a in summand i, b in summand j and c in summand k, where
Q_a = Q(X_a, X_a) and λ = -B/Q is the Killing factor.  Only squared bracket
norms enter, so an integer basis gives rational constants and no basis is
normalised: every constant is a Fraction.  λ comes from the same brackets,

    -B(X_a, X_a) / Q_a = Σ_b Q([X_a, X_b], [X_a, X_b]) / (Q_a Q_b),

which is one number for every a when the algebra is simple.

A matrix is a sparse dict {(row, col): int}; complex matrices are realified
entrywise by x + iy -> [[x, -y], [y, x]].  Basis elements labelled None in a
partition are isotropy directions: they enter every bracket and λ but no
triple sum.  The built-in bases are su(n) ⊃ su(n-1) for n >= 2 and so(2n) in
its four-dimensional root-plane blocks for n >= 4.

The module imports only the standard library, so it shares no code with the
signomial pipeline whose constants it checks.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from typing import Sequence

Matrix = dict[tuple[int, int], int]
Partition = Sequence["int | None"]


def summand_dims(partition: Partition) -> tuple[int, ...]:
    labels = sorted({s for s in partition if s is not None})
    return tuple(sum(1 for s in partition if s == lab) for lab in labels)


def _pairings(x: Matrix, at: dict) -> dict[int, int]:
    """Q(x, X_c) for every basis element X_c sharing a transposed position
    with x; `at` lists the basis entries (c, value) at each position."""
    out: dict[int, int] = defaultdict(int)
    for (r, s), v in x.items():
        for c, w in at.get((s, r), ()):
            out[c] -= v * w
    return out


def _bracket(x: Matrix, y: Matrix, x_rows: dict, y_rows: dict) -> Matrix:
    """[x, y] = xy - yx; *_rows map a row index to that row's (col, value)."""
    out: dict[tuple[int, int], int] = defaultdict(int)
    for (r, k), v in x.items():
        for c, w in y_rows.get(k, ()):
            out[(r, c)] += v * w
    for (r, k), v in y.items():
        for c, w in x_rows.get(k, ()):
            out[(r, c)] -= v * w
    return {pos: v for pos, v in out.items() if v}


def structural_constants(
    basis: Sequence[Matrix], partition: Partition
) -> dict[tuple[int, int, int], Fraction]:
    """The nonzero [ijk], keyed by ascending summand triples.

    Only pairs that share a row or column index are bracketed (for others
    xy = yx = 0).  Raises ValueError when an entry is not an int (a bool,
    float or Fraction, named with its element and position), when the basis
    is not Q-orthogonal with positive norms, when a bracket leaves its span,
    or when -B(X_a, X_a)/Q_a is not one number for every a (not simple).
    """
    if len(partition) != len(basis):
        raise ValueError(f"partition length {len(partition)} != basis size {len(basis)}")
    at: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    rows: list[dict[int, list[tuple[int, int]]]] = []
    supports: list[set[int]] = []  # per element, the indices of its rows and columns
    for c, x in enumerate(basis):
        by_row = defaultdict(list)
        for (r, s), v in x.items():
            try:  # a bool is an int, but no entry; operator.index(None) raises
                v = operator.index(None if isinstance(v, bool) else v)
            except TypeError:  # a float or a Fraction, even of an integer value
                raise ValueError(f"basis element {c} has entry {v!r} at {(r, s)}, "
                                 "not an integer") from None
            at[(r, s)].append((c, v))
            by_row[r].append((s, v))
        rows.append(by_row)
        supports.append({i for pos in x for i in pos})
    norms = []
    for a, x in enumerate(basis):
        gram_row = _pairings(x, at)
        norm = gram_row.pop(a, 0)
        if norm <= 0 or any(gram_row.values()):
            raise ValueError(f"basis is not Q-orthogonal with positive norms at element {a}")
        norms.append(norm)
    # every sum below is kept as an integer over a power of the lcm L of the
    # norms: 1/Q_a = scale[a]/L
    lcm = math.lcm(*norms)
    scale = [lcm // q for q in norms]
    killing = [0] * len(basis)  # L² · (-B(X_a, X_a) / Q_a)
    table: dict[tuple[int, int, int], int] = defaultdict(int)  # L³ · λ[ijk]
    for a, b in combinations(range(len(basis)), 2):
        if supports[a].isdisjoint(supports[b]):
            continue  # no index in common: xy = yx = 0
        y = _bracket(basis[a], basis[b], rows[a], rows[b])
        if not y:
            continue
        by_label: dict["int | None", int] = defaultdict(int)
        for c, coord in _pairings(y, at).items():
            if coord:
                by_label[partition[c]] += coord * coord * scale[c]
        # Bessel's inequality is an equality exactly when y is in the span,
        # as Q is positive definite on real skew-symmetric matrices
        norm_y = -sum(v * y.get((s, r), 0) for (r, s), v in y.items())
        if sum(by_label.values()) != norm_y * lcm:
            raise ValueError(f"bracket of basis elements {a} and {b} leaves their span")
        weight = scale[a] * scale[b]
        killing[a] += norm_y * weight
        killing[b] += norm_y * weight
        sa, sb = partition[a], partition[b]
        if sa is None or sb is None:
            continue
        for sc, value in by_label.items():
            if sc is None:
                continue
            # the ordered sum runs over (a, b, c) and (b, a, c); the table is
            # symmetric, so only ascending keys are kept
            for key in ((sa, sb, sc), (sb, sa, sc)):
                if key[0] <= key[1] <= key[2]:
                    table[key] += value * weight
    factors = set(killing)
    if len(factors) != 1 or 0 in factors:
        lam = ", ".join(str(Fraction(k, lcm * lcm)) for k in sorted(factors))
        raise ValueError(f"-B/Q is not one positive number on the basis: {lam}")
    (killing_l2,) = factors
    return {key: Fraction(value, lcm * killing_l2) for key, value in sorted(table.items())}


# -- built-in bases ---------------------------------------------------------------


def _realify(entries: dict[tuple[int, int], tuple[int, int]]) -> Matrix:
    """The real form of the complex matrix {(row, col): (x, y)} = x + iy."""
    out = {}
    for (r, c), (x, y) in entries.items():
        for dr, dc, v in ((0, 0, x), (0, 1, -y), (1, 0, y), (1, 1, x)):
            if v:
                out[(2 * r + dr, 2 * c + dc)] = v
    return out


def su_n_basis(n: int) -> tuple[list[Matrix], list[int]]:
    """su(n) partitioned for the subgroup SU(n-1).

    Summand 0 is the su(n-1) in the top-left block, summand 1 the 2(n-1)
    last-row/column directions, summand 2 the diagonal u(1) commuting with
    su(n-1).  The diagonals are the Gell-Mann ones i·diag(1, ..., 1, -k, 0, ...),
    so the basis is Q-orthogonal with integer entries.  For n = 2 the
    subgroup is trivial and su(2) is one summand.
    """
    if n < 2:
        raise ValueError(f"su(n) needs n >= 2, got {n}")

    def off(i: int, j: int) -> list[Matrix]:
        return [
            _realify({(i, j): (1, 0), (j, i): (-1, 0)}),
            _realify({(i, j): (0, 1), (j, i): (0, 1)}),
        ]

    def diag(k: int) -> Matrix:
        return _realify({**{(t, t): (0, 1) for t in range(k)}, (k, k): (0, -k)})

    m = n - 1
    sub = [x for i, j in combinations(range(m), 2) for x in off(i, j)]
    sub += [diag(k) for k in range(1, m)]
    column = [x for i in range(m) for x in off(i, m)]
    basis = sub + column + [diag(m)]
    if n == 2:
        return basis, [0] * len(basis)
    return basis, [0] * len(sub) + [1] * len(column) + [2]


def so2n_basis(n: int) -> tuple[list[Matrix], list["int | None"], list[tuple[int, int]]]:
    """so(2n) split by its maximal torus T^n into root-plane blocks.

    Returns (basis, partition, pairs).  Block t is p_ij for (i, j) = pairs[t],
    i < j in combinations order: the four E_ab - E_ba with a in {2i, 2i+1}
    and b in {2j, 2j+1}.  The n torus directions carry None.
    """
    if n < 4:
        raise ValueError(f"so(2n) root-plane bases need n >= 4, got {n}")

    def skew(a: int, b: int) -> Matrix:
        return {(a, b): 1, (b, a): -1}

    basis = [skew(2 * i, 2 * i + 1) for i in range(n)]
    partition: list["int | None"] = [None] * n
    pairs = list(combinations(range(n), 2))
    for t, (i, j) in enumerate(pairs):
        for a in (2 * i, 2 * i + 1):
            for b in (2 * j, 2 * j + 1):
                basis.append(skew(a, b))
                partition.append(t)
    return basis, partition, pairs


def so2n_collapsed_partition(
    partition: Partition, pairs: Sequence[tuple[int, int]]
) -> list["int | None"]:
    """Two-summand coarsening of an so2n_basis partition: the blocks touching
    the first torus factor form summand 0, the rest summand 1."""
    return [None if s is None else (0 if pairs[s][0] == 0 else 1) for s in partition]
