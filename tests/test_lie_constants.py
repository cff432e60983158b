"""Exact bracket oracle against the closed-form catalog constants."""

import ast
import itertools
import re
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homscal import lie_constants
from homscal.catalog import collapsed_so2n_constants, su_n_space
from homscal.lie_constants import (
    _bracket,
    so2n_basis,
    so2n_collapsed_partition,
    structural_constants,
    su_n_basis,
    summand_dims,
)


def triangles(n, pairs):
    """Block triples (p_ij, p_ik, p_jk) of so(2n), as ascending block indices."""
    return {
        tuple(sorted((pairs.index((i, j)), pairs.index((i, k)), pairs.index((j, k)))))
        for i, j, k in itertools.combinations(range(n), 3)
    }


class TestReach:
    def test_su2_single_summand(self):
        basis, partition = su_n_basis(2)
        assert summand_dims(partition) == (3,)
        assert structural_constants(basis, partition) == {(0, 0, 0): 3}

    @pytest.mark.parametrize("n", range(3, 11))
    def test_su_n_matches_the_catalog(self, n):
        basis, partition = su_n_basis(n)
        assert summand_dims(partition) == su_n_space(n).dims
        assert structural_constants(basis, partition) == su_n_space(n).triples

    @pytest.mark.parametrize("n", range(4, 9))
    def test_collapsed_so2n_matches_the_catalog(self, n):
        basis, partition, pairs = so2n_basis(n)
        collapsed = so2n_collapsed_partition(partition, pairs)
        assert summand_dims(collapsed) == (4 * (n - 1), 2 * (n - 1) * (n - 2))
        assert structural_constants(basis, collapsed) == collapsed_so2n_constants(n)

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_so2n_blocks_carry_2_over_n_minus_1_on_triangles(self, n):
        # n = 4 is so(8)'s six-block table: 2/3 on exactly 4 triangles
        basis, partition, pairs = so2n_basis(n)
        assert summand_dims(partition) == (4,) * (n * (n - 1) // 2)
        got = structural_constants(basis, partition)
        assert got == {key: Fraction(2, n - 1) for key in triangles(n, pairs)}

    def test_merging_summands_adds_constants(self):
        # the one-block total equals the orbit-weighted sum of the block table
        basis, partition = su_n_basis(3)
        fine = structural_constants(basis, partition)
        coarse = structural_constants(basis, [0] * len(basis))
        orbit_total = sum(v * len(set(itertools.permutations(k))) for k, v in fine.items())
        assert coarse == {(0, 0, 0): orbit_total} == {(0, 0, 0): 8}

    def test_isotropy_directions_enter_no_triple(self):
        # su(3) with the u(1) direction as isotropy: the [112] leg drops, the
        # Killing factor and the other constants stay
        basis, partition = su_n_basis(3)
        got = structural_constants(basis, partition[:-1] + [None])
        assert got == {(0, 0, 0): 2, (0, 1, 1): 1}

    @pytest.mark.parametrize(
        "basis", [su_n_basis(n)[0] for n in range(2, 7)] + [so2n_basis(n)[0] for n in (4, 5, 6)],
        ids=[f"su{n}" for n in range(2, 7)] + [f"so{2 * n}" for n in (4, 5, 6)],
    )
    def test_builtin_bases_are_skew_and_integer(self, basis):
        # Q = -tr(XY) is positive definite on skew matrices, which the span
        # test (Bessel's inequality as an equality) relies on
        for x in basis:
            assert x and all(isinstance(v, int) and v for v in x.values())
            assert all(x.get((c, r)) == -v for (r, c), v in x.items())

    def test_su_n_range_floor(self):
        with pytest.raises(ValueError, match="n >= 2"):
            su_n_basis(1)

    def test_so2n_range_floor(self):
        with pytest.raises(ValueError, match="n >= 4"):
            so2n_basis(3)


class TestRejected:
    def test_non_orthogonal_basis(self):
        basis, partition = su_n_basis(2)
        mixed = {pos: basis[0].get(pos, 0) + basis[1].get(pos, 0)
                 for pos in basis[0].keys() | basis[1].keys()}
        with pytest.raises(ValueError, match="not Q-orthogonal"):
            structural_constants([mixed] + basis[1:], partition)

    def test_bracket_outside_the_span(self):
        # su(3) less one off-diagonal direction: two remaining ones bracket onto it
        basis, partition = su_n_basis(3)
        with pytest.raises(ValueError, match="leaves their span"):
            structural_constants(basis[1:], partition[1:])

    def test_non_simple_algebra(self):
        # su(2) + su(2), one copy realified from 2x2 complex matrices (-B = 2Q),
        # the other as so(3) on rows 4..6 (-B = Q): two values of lambda
        su2, _ = su_n_basis(2)
        so3 = [{(4 + a, 4 + b): 1, (4 + b, 4 + a): -1}
               for a, b in itertools.combinations(range(3), 2)]
        with pytest.raises(ValueError, match="basis: 1, 2$"):
            structural_constants(su2 + so3, [0] * 6)

    def test_abelian_algebra(self):
        with pytest.raises(ValueError, match="not one positive number"):
            structural_constants([{(0, 1): 1, (1, 0): -1}], [0])

    def test_partition_length(self):
        basis, partition = su_n_basis(2)
        with pytest.raises(ValueError, match="partition length"):
            structural_constants(basis, partition + [0])

    @pytest.mark.parametrize("entry", [1.0, 0.5, Fraction(1), True], ids=repr)
    def test_non_integer_entry(self, entry):
        # a Fraction or float of integer value and a bool are no int entries
        basis, partition = su_n_basis(3)
        position = sorted(basis[4])[1]
        basis[4] = {**basis[4], position: entry}
        message = f"basis element 4 has entry {entry!r} at {position}, not an integer"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            structural_constants(basis, partition)


def _reference_constants(basis, partition):
    """[ijk] by the formula, as Fractions: every ordered pair (a, b) is
    bracketed by dense-free matrix products and paired with every X_c, and
    lambda is read at X_0."""
    def product(x, y):
        out = defaultdict(int)
        for (r, k), v in x.items():
            for (k2, c), w in y.items():
                if k == k2:
                    out[r, c] += v * w
        return out

    def q(x, y):  # -tr(xy)
        return -sum(v * y.get((s, r), 0) for (r, s), v in x.items())

    norms = [q(x, x) for x in basis]
    table, lam = defaultdict(Fraction), Fraction(0)
    for a, b in itertools.product(range(len(basis)), repeat=2):
        xy, yx = product(basis[a], basis[b]), product(basis[b], basis[a])
        y = {pos: xy.get(pos, 0) - yx.get(pos, 0) for pos in xy.keys() | yx.keys()}
        if a == 0:
            lam += Fraction(q(y, y), norms[a] * norms[b])
        key = (partition[a], partition[b])
        if None in key:
            continue
        for c, z in enumerate(basis):
            coord = q(y, z)
            if coord and partition[c] is not None and key[0] <= key[1] <= partition[c]:
                table[(*key, partition[c])] += Fraction(coord * coord,
                                                        norms[a] * norms[b] * norms[c])
    return {key: value / lam for key, value in sorted(table.items()) if value}


def _so2n_cases():
    for n in (4, 5, 6):
        basis, partition, pairs = so2n_basis(n)
        yield pytest.param(basis, partition, id=f"so{2 * n}-blocks")
        yield pytest.param(basis, so2n_collapsed_partition(partition, pairs),
                           id=f"so{2 * n}-collapsed")


class TestDisjointSupports:
    @pytest.mark.parametrize("basis, partition", [
        *(pytest.param(*su_n_basis(n), id=f"su{n}") for n in range(2, 6)), *_so2n_cases()])
    def test_same_constants_as_bracketing_every_pair(self, monkeypatch, basis, partition):
        bracketed = []

        def counted(x, y, x_rows, y_rows):
            bracketed.append((x, y))
            return _bracket(x, y, x_rows, y_rows)

        monkeypatch.setattr(lie_constants, "_bracket", counted)
        got = structural_constants(basis, partition)
        assert got == _reference_constants(basis, partition)
        assert all(type(v) is Fraction for v in got.values())
        # no pair without a common row or column index is bracketed
        support = lambda x: {i for pos in x for i in pos}
        assert all(support(x) & support(y) for x, y in bracketed)

    @pytest.mark.parametrize("algebra, brackets", [("su2", 3), ("su3", 28), ("so8", 168)])
    def test_verify_constants_brackets(self, monkeypatch, algebra, brackets):
        # so(8) brackets 168 of its 378 pairs: the others share no index
        basis, partition = (su_n_basis(int(algebra[2])) if algebra.startswith("su")
                            else so2n_basis(4)[:2])
        calls = []
        monkeypatch.setattr(lie_constants, "_bracket",
                            lambda *args: calls.append(args) or _bracket(*args))
        structural_constants(basis, partition)
        assert len(calls) == brackets


class TestInvariance:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-5, 5).filter(bool), min_size=8, max_size=8))
    def test_integer_scaling_of_basis_elements(self, factors):
        basis, partition = su_n_basis(3)
        scaled = [{pos: c * v for pos, v in x.items()} for c, x in zip(factors, basis)]
        want = structural_constants(basis, partition)
        assert structural_constants(scaled, partition) == want

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_bracket_matches_the_dense_commutator(self, data):
        def matrix():
            entries = st.dictionaries(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.integers(-3, 3).filter(bool), max_size=8)
            return data.draw(entries)

        def rows(x):
            out = {}
            for (r, c), v in x.items():
                out.setdefault(r, []).append((c, v))
            return out

        x, y = matrix(), matrix()
        dense = {}
        for r, c in itertools.product(range(4), repeat=2):
            v = sum(x.get((r, k), 0) * y.get((k, c), 0) - y.get((r, k), 0) * x.get((k, c), 0)
                    for k in range(4))
            if v:
                dense[(r, c)] = v
        assert _bracket(x, y, rows(x), rows(y)) == dense


def test_module_imports_only_the_standard_library():
    tree = ast.parse(Path(lie_constants.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module.split(".")[0])
    assert imported
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names
