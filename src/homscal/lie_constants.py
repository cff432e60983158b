"""Brute-force structural constants from bracket tables.

Given a basis e_1, ..., e_m of a compact Lie algebra with bracket coordinates
and a positive definite invariant inner product Q, the constant attached to
summands (i, j, k) of a decomposition is the sum of squared bracket
projections

    [ijk] = sum over alpha in block i, beta in block j, gamma in block k
            of Q([e_alpha, e_beta], e_gamma)^2

computed over Q-orthonormal bases of the blocks.  This module is a floating
point oracle: it validates the closed-form constants used by the catalog for
algebras small enough to enumerate (su(2), su(3), su(4) and so(8)).

Basis indices assigned None in a partition are isotropy directions; they are
orthonormalized along with everything else but excluded from the triple sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

Partition = Sequence["int | None"]


@dataclass(frozen=True)
class BracketTable:
    """Bracket coordinates and Gram matrix of a finite-dimensional Lie algebra.

    brackets[a, b, :] holds the coordinates of [e_a, e_b] in the same basis;
    gram[a, b] = Q(e_a, e_b).
    """

    brackets: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        br = np.asarray(self.brackets, dtype=float)
        g = np.asarray(self.gram, dtype=float)
        if br.ndim != 3 or len({br.shape[0], br.shape[1], br.shape[2]}) != 1:
            raise ValueError(f"brackets must be (m, m, m), got {br.shape}")
        if g.shape != br.shape[:2]:
            raise ValueError(f"gram shape {g.shape} does not match dimension {br.shape[0]}")
        object.__setattr__(self, "brackets", br)
        object.__setattr__(self, "gram", g)

    @property
    def dim(self) -> int:
        return self.brackets.shape[0]

    def check(self) -> list[str]:
        """Report violations of antisymmetry, the Jacobi identity, gram
        symmetry, beyond 1e-9 (the Jacobi identity relative to max |bracket|^2)."""
        tol = 1e-9
        issues = []
        br = self.brackets
        anti = np.abs(br + np.swapaxes(br, 0, 1)).max()
        if anti > tol:
            issues.append(f"bracket antisymmetry violated by {anti:.2e}")
        if np.abs(self.gram - self.gram.T).max() > tol:
            issues.append("gram matrix is not symmetric")
        # [a,[b,c]] + [b,[c,a]] + [c,[a,b]] = 0 on basis triples
        abc = np.einsum("bcx,axk->abck", br, br, optimize=True)
        jac = abc + np.einsum("abck->bcak", abc) + np.einsum("abck->cabk", abc)
        worst = np.abs(jac).max()
        if worst > tol * max(1.0, np.abs(br).max() ** 2):
            issues.append(f"Jacobi identity violated by {worst:.2e}")
        return issues


def killing_gram(table: BracketTable) -> np.ndarray:
    """Minus the Killing form: entry (a, b) = -trace(ad e_a o ad e_b).

    Positive definite exactly when the algebra is compact semisimple; an
    abelian algebra gives the zero matrix, which is not usable as Q.
    """
    ad = np.swapaxes(table.brackets, 1, 2)  # ad[a][k, b] = coord k of [e_a, e_b]
    return -np.einsum("aij,bji->ab", ad, ad)


def _blocks(partition: Partition, dim: int) -> list[list[int]]:
    if len(partition) != dim:
        raise ValueError(f"partition length {len(partition)} != dimension {dim}")
    labels = sorted({s for s in partition if s is not None})
    if labels and labels != list(range(len(labels))):
        raise ValueError(f"summand labels must be 0..r-1, got {labels}")
    groups = [[a for a, s in enumerate(partition) if s == lab] for lab in labels]
    iso = [a for a, s in enumerate(partition) if s is None]
    return groups + ([iso] if iso else [])


def summand_dims(partition: Partition) -> tuple[int, ...]:
    labels = sorted({s for s in partition if s is not None})
    return tuple(sum(1 for s in partition if s == lab) for lab in labels)


def orthonormalize(table: BracketTable, partition: Partition | None = None) -> BracketTable:
    """Gram-Schmidt within each summand block; the result has identity gram.

    Blocks must already be Q-orthogonal to each other (true for any
    Q-orthogonal reductive decomposition); this is checked.
    """
    dim = table.dim
    part = list(partition) if partition is not None else [0] * dim
    blocks = _blocks(part, dim)
    gram = table.gram
    # cross-block orthogonality
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            cross = np.abs(gram[np.ix_(blocks[bi], blocks[bj])]).max(initial=0.0)
            if cross > 1e-9 * max(1.0, np.abs(gram).max()):
                raise ValueError(
                    f"blocks {bi} and {bj} are not Q-orthogonal (max {cross:.2e})"
                )
    S = np.zeros((dim, dim))
    for idx in blocks:
        sub = gram[np.ix_(idx, idx)]
        try:
            lower = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix is not positive definite") from None
        sblk = np.linalg.inv(lower).T  # classical Gram-Schmidt transform
        for jj, j in enumerate(idx):
            for ii, i in enumerate(idx):
                S[i, j] = sblk[ii, jj]
    sinv = np.linalg.inv(S)
    # new basis f_j = sum_a S[a, j] e_a
    new_brackets = np.einsum("ai,bj,abk,ck->ijc", S, S, table.brackets, sinv, optimize=True)
    new_gram = S.T @ gram @ S
    return BracketTable(brackets=new_brackets, gram=new_gram)


def structural_constants(
    table: BracketTable, partition: Partition
) -> dict[tuple[int, int, int], float]:
    """Triple sums of squared bracket projections over a Q-orthonormal table.

    Returns the nonzero constants keyed by ascending index triples.  The full
    ordered table is checked for permutation symmetry to 1e-9 (relative to
    the largest entry).
    """
    dim = table.dim
    if np.abs(table.gram - np.eye(dim)).max() > 1e-10:
        raise ValueError("basis is not Q-orthonormal; call orthonormalize first")
    part = list(partition)
    labels = sorted({s for s in part if s is not None})
    r = len(labels)
    indicator = np.zeros((r, dim))
    for a, s in enumerate(part):
        if s is not None:
            indicator[s, a] = 1.0
    sq = table.brackets ** 2
    full = np.einsum("abc,ia,jb,kc->ijk", sq, indicator, indicator, indicator, optimize=True)
    scale = max(1.0, np.abs(full).max())
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        dev = np.abs(full - np.transpose(full, perm)).max()
        if dev > 1e-9 * scale:
            raise ValueError(f"triple table is not permutation symmetric (dev {dev:.2e})")
    out: dict[tuple[int, int, int], float] = {}
    for i in range(r):
        for j in range(i, r):
            for k in range(j, r):
                v = float(full[i, j, k])
                if abs(v) > 1e-10 * scale:
                    out[(i, j, k)] = v
    return out


# -- built-in generators ---------------------------------------------------------


def _coords_from_matrices(mats: list[np.ndarray]) -> np.ndarray:
    """Bracket coordinates of a matrix Lie algebra basis, via least squares.

    One row a at a time: the commutators [mats[a], mats[b]] for b > a are
    solved with one matmul against the pseudo-inverse, and the lower triangle
    is filled by antisymmetry, so coords[a, b] == -coords[b, a] exactly.
    """
    dim = len(mats)
    stack = np.array(mats)
    flat = stack.reshape(dim, -1)
    basis = np.hstack([flat.real, flat.imag])  # row a: real then imaginary entries
    pinv = np.linalg.pinv(basis)
    coords = np.zeros((dim, dim, dim))
    for a in range(dim - 1):
        rest = stack[a + 1:]
        comm = (mats[a] @ rest - rest @ mats[a]).reshape(len(rest), -1)
        vecs = np.hstack([comm.real, comm.imag])
        sol = vecs @ pinv
        if np.abs(sol @ basis - vecs).max() > 1e-9:
            raise ValueError("bracket left the span of the basis")
        coords[a, a + 1:] = sol
        coords[a + 1:, a] = -sol
    return coords


def su2_abstract_table() -> tuple[BracketTable, list[int]]:
    """su(2) given abstractly by [e1,e2] = 2 e3 cyclic, with Q = -Killing (= 8 I)."""
    br = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        br[a, b, c] = 2.0
        br[b, a, c] = -2.0
    table = BracketTable(brackets=br, gram=np.zeros((3, 3)))
    return BracketTable(brackets=br, gram=killing_gram(table)), [0, 0, 0]


def su_n_table(n: int) -> tuple[BracketTable, list[int]]:
    """su(n) with Q = -Killing, block-partitioned for the subgroup SU(n-1).

    Basis order: the su(n-1) top-left block (summand 0), then the 2(n-1)
    last-row/column directions (summand 1), then the traceless diagonal
    direction commuting with the subgroup (summand 2).  For n = 2 the
    subgroup is trivial and everything is one summand.
    """
    if not 2 <= n <= 4:
        raise ValueError("built-in su(n) tables cover 2 <= n <= 4")
    mats: list[np.ndarray] = []
    m = n - 1

    def zero() -> np.ndarray:
        return np.zeros((n, n), dtype=complex)

    for i in range(m):
        for j in range(i + 1, m):
            e = zero(); e[i, j] = 1;  e[j, i] = -1
            mats.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = zero(); e[i, j] = 1j; e[j, i] = 1j
            mats.append(e)
    for k in range(m - 1):
        e = zero(); e[k, k] = 1j; e[k + 1, k + 1] = -1j
        mats.append(e)
    d1 = len(mats)
    for i in range(m):
        e = zero(); e[i, n - 1] = 1;  e[n - 1, i] = -1
        mats.append(e)
        e = zero(); e[i, n - 1] = 1j; e[n - 1, i] = 1j
        mats.append(e)
    e = zero()
    for i in range(m):
        e[i, i] = 1j
    e[n - 1, n - 1] = -1j * m
    mats.append(e)

    coords = _coords_from_matrices(mats)
    table = BracketTable(brackets=coords, gram=np.zeros((len(mats),) * 2))
    table = BracketTable(brackets=coords, gram=killing_gram(table))
    if n == 2:
        partition = [0] * len(mats)
    else:
        partition = [0] * d1 + [1] * (2 * m) + [2]
    return table, partition


def so8_table() -> tuple[BracketTable, list["int | None"], list[tuple[int, int]]]:
    """so(8) with Q = -Killing, partitioned into the six 4-dimensional blocks
    p_{ij} of the full flag quotient by the maximal torus.

    Returns (table, partition, block pairs); torus directions carry None.
    Block t corresponds to pairs[t] = (i, j) with 0 <= i < j < 4.
    """
    size = 8

    def skew(a: int, b: int) -> np.ndarray:
        e = np.zeros((size, size), dtype=complex)
        e[a, b] = 1.0
        e[b, a] = -1.0
        return e

    mats: list[np.ndarray] = []
    partition: list["int | None"] = []
    for i in range(4):
        mats.append(skew(2 * i, 2 * i + 1))
        partition.append(None)
    pairs: list[tuple[int, int]] = []
    for i in range(4):
        for j in range(i + 1, 4):
            t = len(pairs)
            pairs.append((i, j))
            for a in (2 * i, 2 * i + 1):
                for b in (2 * j, 2 * j + 1):
                    mats.append(skew(a, b))
                    partition.append(t)
    coords = _coords_from_matrices(mats)
    table = BracketTable(brackets=coords, gram=np.zeros((len(mats),) * 2))
    table = BracketTable(brackets=coords, gram=killing_gram(table))
    return table, partition, pairs


def so8_collapsed_partition() -> list["int | None"]:
    """Two-summand coarsening of the so(8) block partition: the blocks touching
    the first torus factor form summand 0, the rest summand 1."""
    _, partition, pairs = so8_table()
    return [None if s is None else (0 if pairs[s][0] == 0 else 1) for s in partition]
