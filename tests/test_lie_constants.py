"""Brute-force bracket oracle against the closed-form constants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homscal.lie_constants import (
    BracketTable,
    _coords_from_matrices,
    killing_gram,
    orthonormalize,
    so8_collapsed_partition,
    so8_table,
    structural_constants,
    su2_abstract_table,
    su_n_table,
    summand_dims,
)


def constants(table, partition):
    return structural_constants(orthonormalize(table, partition), partition)


def block_matrix(rng, partition, spd):
    """Random block-diagonal matrix over the blocks of a partition: symmetric
    positive definite when spd, else invertible and well conditioned."""
    dim = len(partition)
    out = np.zeros((dim, dim))
    for label in set(partition):
        idx = [a for a, s in enumerate(partition) if s == label]
        a = rng.standard_normal((len(idx), len(idx)))
        eye = np.eye(len(idx))
        out[np.ix_(idx, idx)] = a @ a.T + len(idx) * eye if spd else a + 3 * len(idx) * eye
    return out


def random_table(rng, partition):
    """Antisymmetric random brackets with a non-diagonal, block-SPD gram."""
    dim = len(partition)
    br = rng.standard_normal((dim, dim, dim))
    br = br - np.swapaxes(br, 0, 1)
    return BracketTable(brackets=br, gram=block_matrix(rng, partition, spd=True))


def change_basis(table, p):
    """The same algebra in the basis f_j = sum_a p[a, j] e_a."""
    pinv = np.linalg.inv(p)
    br = np.einsum("ai,bj,abk,ck->ijc", p, p, table.brackets, pinv, optimize=True)
    return BracketTable(brackets=br, gram=p.T @ table.gram @ p)


def reference_orthonormalize(table, partition):
    """orthonormalize with the brackets transformed by one 4-operand einsum."""
    dim = table.dim
    s = np.zeros((dim, dim))
    for label in sorted(set(partition), key=lambda x: (x is None, x)):
        idx = [a for a, lab in enumerate(partition) if lab == label]
        lower = np.linalg.cholesky(table.gram[np.ix_(idx, idx)])
        s[np.ix_(idx, idx)] = np.linalg.inv(lower).T
    sinv = np.linalg.inv(s)
    brackets = np.einsum("ai,bj,abk,ck->ijc", s, s, table.brackets, sinv)
    return BracketTable(brackets=brackets, gram=s.T @ table.gram @ s)


class TestKillingGram:
    def test_abelian_algebra_gives_zero(self):
        assert np.abs(killing_gram(np.zeros((3, 3, 3)))).max() == 0.0

    def test_cyclic_su2_gram_is_8I(self):
        table, _ = su2_abstract_table()
        assert np.allclose(table.gram, 8 * np.eye(3), atol=1e-12)

    def test_su3_gram_matches_trace_form(self):
        # -B(X, Y) = -2n tr(XY): diagonal 12 on the tr(X^2) = -2 directions
        table, _ = su_n_table(3)
        diag = np.diag(table.gram)
        assert np.allclose(diag[:7], 12.0, atol=1e-9)


class TestTableChecks:
    def test_builtin_tables_are_lie_algebras(self):
        for table, _ in (su2_abstract_table(), su_n_table(3), su_n_table(4), so8_table()[:2]):
            assert table.check() == []

    def test_broken_jacobi_reported(self):
        # [e0,e1] = e2 and [e1,e2] = e1 leave [e0,[e1,e2]] + cyclic = e2 != 0
        br = np.zeros((3, 3, 3))
        br[0, 1, 2], br[1, 0, 2] = 1.0, -1.0
        br[1, 2, 1], br[2, 1, 1] = 1.0, -1.0
        table = BracketTable(brackets=br, gram=np.eye(3))
        assert any("Jacobi" in msg for msg in table.check())

    def test_broken_antisymmetry_reported(self):
        br = np.zeros((2, 2, 2))
        br[0, 1, 0] = 1.0
        table = BracketTable(brackets=br, gram=np.eye(2))
        assert any("antisymmetry" in msg for msg in table.check())


class TestOrthonormalize:
    def test_gram_becomes_identity(self):
        table, partition = su_n_table(3)
        ortho = orthonormalize(table, partition)
        assert np.abs(ortho.gram - np.eye(table.dim)).max() < 1e-12

    def test_idempotent_on_orthonormal_basis(self):
        table, partition = su2_abstract_table()
        once = orthonormalize(table, partition)
        twice = orthonormalize(once, partition)
        assert np.abs(once.brackets - twice.brackets).max() < 1e-12

    def test_diagonal_gram_rescales_basis(self):
        # abelian with Q = 4I: new basis is the old one over 2, brackets stay 0
        table = BracketTable(brackets=np.zeros((2, 2, 2)), gram=4 * np.eye(2))
        ortho = orthonormalize(table, [0, 0])
        assert np.allclose(ortho.gram, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_four_operand_reference(self, seed):
        rng = np.random.default_rng(seed)
        partition = [0, 0, 0, 1, 1, None, 2, 2, 2, 2, None][: 7 + seed]
        table = random_table(rng, partition)
        assert np.abs(table.gram - np.diag(np.diag(table.gram))).max() > 0.1
        got = orthonormalize(table, partition)
        want = reference_orthonormalize(table, partition)
        assert np.abs(got.brackets - want.brackets).max() < 1e-12
        assert np.abs(got.gram - want.gram).max() < 1e-12
        assert np.abs(got.gram - np.eye(table.dim)).max() < 1e-12

    def test_zero_gram_rejected(self):
        table = BracketTable(brackets=np.zeros((2, 2, 2)), gram=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="positive definite"):
            orthonormalize(table, [0, 0])

    def test_non_orthogonal_blocks_rejected(self):
        gram = np.array([[1.0, 0.5], [0.5, 1.0]])
        table = BracketTable(brackets=np.zeros((2, 2, 2)), gram=gram)
        with pytest.raises(ValueError, match="orthogonal"):
            orthonormalize(table, [0, 1])


class TestCoordsFromMatrices:
    @staticmethod
    def so4_basis(rng):
        """A random basis of so(4): invertible mixes of the six E_ab - E_ba."""
        std = []
        for a, b in itertools.combinations(range(4), 2):
            e = np.zeros((4, 4), dtype=complex)
            e[a, b], e[b, a] = 1.0, -1.0
            std.append(e)
        mix = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        return [sum(mix[i, j] * std[j] for j in range(6)) for i in range(6)]

    def test_coordinates_are_exactly_antisymmetric(self):
        coords = _coords_from_matrices(self.so4_basis(np.random.default_rng(1)))
        assert np.array_equal(coords, -np.swapaxes(coords, 0, 1))

    def test_coordinates_reproduce_the_commutators(self):
        mats = self.so4_basis(np.random.default_rng(2))
        coords = _coords_from_matrices(mats)
        for a, b in itertools.product(range(6), repeat=2):
            bracket = mats[a] @ mats[b] - mats[b] @ mats[a]
            rebuilt = sum(coords[a, b, c] * mats[c] for c in range(6))
            assert np.abs(rebuilt - bracket).max() < 1e-10

    @pytest.mark.parametrize("build", [lambda: su_n_table(4)[0], lambda: so8_table()[0]])
    def test_builtin_tables_are_exactly_antisymmetric(self, build):
        br = build().brackets
        assert np.array_equal(br, -np.swapaxes(br, 0, 1))

    def test_bracket_outside_the_span_rejected(self):
        # two symmetric matrices: their commutator is antisymmetric
        x = np.array([[1, 0], [0, -1]], dtype=complex)
        y = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ValueError, match="span"):
            _coords_from_matrices([x, y])


class TestStructuralConstants:
    def test_requires_orthonormal_basis(self):
        table, partition = su2_abstract_table()
        with pytest.raises(ValueError, match="orthonormal"):
            structural_constants(table, partition)

    def test_abelian_gives_empty_table(self):
        table = BracketTable(brackets=np.zeros((4, 4, 4)), gram=np.eye(4))
        assert structural_constants(table, [0, 0, 1, 1]) == {}

    def test_su2_single_summand(self):
        table, partition = su2_abstract_table()
        got = constants(table, partition)
        assert set(got) == {(0, 0, 0)}
        assert got[(0, 0, 0)] == pytest.approx(3.0, abs=1e-9)

    def test_su3_standard_blocks(self):
        table, partition = su_n_table(3)
        got = constants(table, partition)
        assert summand_dims(partition) == (3, 4, 1)
        assert got[(0, 0, 0)] == pytest.approx(2.0, abs=1e-8)
        assert got[(0, 1, 1)] == pytest.approx(1.0, abs=1e-8)
        assert got[(1, 1, 2)] == pytest.approx(1.0, abs=1e-8)
        assert set(got) == {(0, 0, 0), (0, 1, 1), (1, 1, 2)}

    def test_su4_standard_blocks(self):
        table, partition = su_n_table(4)
        got = constants(table, partition)
        assert summand_dims(partition) == (8, 6, 1)
        assert got[(0, 0, 0)] == pytest.approx(6.0, abs=1e-8)
        assert got[(0, 1, 1)] == pytest.approx(2.0, abs=1e-8)
        assert got[(1, 1, 2)] == pytest.approx(1.0, abs=1e-8)

    def test_so8_block_constants(self):
        table, partition, pairs = so8_table()
        assert summand_dims(partition) == (4,) * 6
        got = constants(table, partition)
        triangles = set()
        for i, j, k in itertools.combinations(range(4), 3):
            triangles.add(
                tuple(sorted((pairs.index((i, j)), pairs.index((i, k)), pairs.index((j, k)))))
            )
        assert set(got) == triangles
        for key in triangles:
            assert got[key] == pytest.approx(2.0 / 3.0, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_invariant_under_change_of_basis_within_blocks(self, seed):
        table, partition = su_n_table(3)
        p = block_matrix(np.random.default_rng(seed), partition, spd=False)
        moved = change_basis(table, p)
        assert np.abs(moved.gram - np.diag(np.diag(moved.gram))).max() > 0.0
        want = constants(table, partition)
        got = constants(moved, partition)
        assert set(got) == set(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-10)

    def test_so8_collapsed_two_summands(self):
        table, _, _ = so8_table()
        partition = so8_collapsed_partition()
        assert summand_dims(partition) == (12, 12)
        got = constants(table, partition)
        assert got[(0, 0, 1)] == pytest.approx(4.0, abs=1e-9)
        assert got[(1, 1, 1)] == pytest.approx(4.0, abs=1e-9)
        assert set(got) == {(0, 0, 1), (1, 1, 1)}

    def test_merging_summands_adds_constants(self):
        # the one-block total equals the orbit-weighted sum of the block table
        table, partition = su_n_table(3)
        ortho = orthonormalize(table, partition)
        fine = structural_constants(ortho, partition)
        coarse = structural_constants(ortho, [0] * table.dim)
        orbit_total = 0.0
        for (i, j, k), v in fine.items():
            orbit_total += v * len(set(itertools.permutations((i, j, k))))
        assert coarse[(0, 0, 0)] == pytest.approx(orbit_total, abs=1e-9)
        assert coarse[(0, 0, 0)] == pytest.approx(8.0, abs=1e-9)

    def test_scaling_q_scales_constants_inversely(self):
        table, partition = su2_abstract_table()
        baseline = constants(table, partition)[(0, 0, 0)]
        for c in (2.0, 0.25):
            scaled = BracketTable(brackets=table.brackets, gram=c * table.gram)
            got = constants(scaled, partition)[(0, 0, 0)]
            assert got == pytest.approx(baseline / c, rel=1e-9)
