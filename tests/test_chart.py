"""Slice charts: restriction, eigensolver, Newton search, classification."""

import ast
import dis
import itertools
import json
import math
import warnings
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import homscal.chart as chart_mod
import homscal.cli as cli
from homscal.catalog import build, default_entries, e6_space, so2n_flag_space, su_n_space
from homscal.chart import (
    Classification,
    CriticalPoint,
    SliceChart,
    find_critical_points,
    jacobi_eigh,
    newton_critical,
    restrict,
)
from homscal.signomial import Signomial, _kernel_template, _monomial
from homscal.space import HomogeneousSpace, space_from_dict
from test_cli import SEARCH_SPACES
from test_signomial import exact_term_sum
from test_space import spaces


def sig(arity, *pairs):
    return Signomial.from_terms(arity, [(F(c), e) for c, e in pairs])


def synthetic_chart(reduced):
    return SliceChart(label="synthetic", dims=(1,) * (reduced.arity + 1),
                      eliminated=reduced.arity, reduced=reduced)


class TestRestrict:
    def test_unitary_family_reduced_formula(self):
        for n in (3, 5, 7, 10):
            chart = restrict(su_n_space(n), eliminated=2)
            m = n * (n - 2)
            expected = sig(
                2,
                (F(n * n - 3 * n + 2, 4), {0: -1}),
                (n - 1, {1: -1}),
                (F(-(n - 2), 4), {0: 1, 1: -2}),
                (F(-1, 4), {0: -m, 1: -2 * n}),
            )
            assert chart.reduced == expected

    def test_two_summand_chart_eliminating_first(self):
        chart = restrict(e6_space(), eliminated=0)
        assert chart.reduced == sig(1, (5, {0: 2}), (20, {0: -1}), (F(-5, 2), {0: -4}))

    def test_flag_family_fractional_exponents(self):
        # reduced value matches [4(n-1) + (n^2-3n+2) x^(n/(n-2)) + (2-n) x^(-n/(n-2))]/(2x)
        for n in range(4, 9):
            chart = restrict(so2n_flag_space(n), eliminated=1)
            expected = sig(
                1,
                (2 * (n - 1), {0: -1}),
                (F((n - 1) * (n - 2), 2), {0: F(2, n - 2)}),
                (F(2 - n, 2), {0: F(-2 * (n - 1), n - 2)}),
            )
            assert chart.reduced == expected

    def test_flag_family_at_four(self):
        chart = restrict(so2n_flag_space(4), eliminated=1)
        assert chart.reduced == sig(1, (6, {0: -1}), (3, {0: 1}), (-1, {0: -3}))

    def test_default_eliminates_last_summand(self):
        assert restrict(su_n_space(3)).eliminated == 2

    def test_bad_index(self):
        with pytest.raises(ValueError):
            restrict(e6_space(), eliminated=5)

    @pytest.mark.parametrize("eliminated", [True, 1.0, "1"])
    def test_an_index_that_is_not_an_integer_is_a_value_error(self, eliminated):
        with pytest.raises(ValueError, match="expected an integer"):
            restrict(su_n_space(4), eliminated)

    def test_restrict_then_eval_matches_full_curvature(self):
        space = su_n_space(4)
        chart = restrict(space)
        scal = space.scalar_curvature()
        ones = (F(1), F(1))
        assert chart.reduced.eval_exact(ones) == scal.eval_exact((F(1), F(1), F(1)))
        point = (1.3, 0.8)
        inflated = chart.inflate(point)
        assert np.prod([x ** d for x, d in zip(inflated, space.dims)]) == pytest.approx(1.0, rel=1e-12)
        assert chart.reduced.eval_float(point) == pytest.approx(
            scal.eval_float(inflated), rel=1e-12
        )

    def test_inflate_two_summand_chart(self):
        chart = restrict(e6_space(), eliminated=0)
        assert chart.inflate((1.1,)) == pytest.approx((1.1 ** -2, 1.1), rel=1e-15)

    def test_inflate_rejects_a_point_of_the_wrong_length(self):
        chart = restrict(e6_space(), eliminated=0)
        for point in ((), (1.1, 0.9)):
            with pytest.raises(ValueError, match="chart point needs 1 coordinates"):
                chart.inflate(point)

    def test_volume_elimination_two_summands(self):
        # x := y^-2 in 5/x + 20/y - 5x/(2y^2) gives 5y^2 + 20/y - 5/(2y^4)
        space = e6_space()
        assert space.scalar_curvature() == sig(
            2, (5, {0: -1}), (20, {1: -1}), (F(-5, 2), {0: 1, 1: -2})
        )
        assert restrict(space, eliminated=0).reduced == sig(
            1, (5, {0: 2}), (20, {0: -1}), (F(-5, 2), {0: -4})
        )

    def test_three_variable_elimination(self):
        # z := x^-3 y^-4 in 1/(2x) + 2/y - x/(4y^2) - z/(4y^2), where the
        # 1/z terms of b_2 and [112] cancel; the last term becomes -1/4 x^-3 y^-6
        space = HomogeneousSpace(name="three", dims=(3, 4, 1), b=(F(2, 3), 1, 1),
                                 triples={(0, 1, 1): F(1), (1, 1, 2): F(1)})
        assert space.scalar_curvature() == sig(
            3,
            (F(1, 2), {0: -1}),
            (2, {1: -1}),
            (F(-1, 4), {0: 1, 1: -2}),
            (F(-1, 4), {1: -2, 2: 1}),
        )
        assert restrict(space, eliminated=2).reduced == sig(
            2,
            (F(1, 2), {0: -1}),
            (2, {1: -1}),
            (F(-1, 4), {0: 1, 1: -2}),
            (F(-1, 4), {0: -3, 1: -6}),
        )


def _slice_chart_callers():
    """(module file, enclosing function) of every SliceChart(...) call in the
    package source."""
    callers = set()

    def visit(node, where, path):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            func = getattr(child, "func", None)
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if isinstance(child, ast.Call) and name == "SliceChart":
                callers.add((path.name, where))
            visit(child, inner, path)

    for path in sorted(Path(chart_mod.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path)
    return callers


def test_restrict_is_the_one_place_a_chart_is_made():
    # every chart in the package is a space restricted to its slice: a
    # hand-typed reduced form would bypass validate and the flow oracle
    assert _slice_chart_callers() == {("chart.py", "restrict")}


def _reference_restricted_terms(space, e):
    """The reduced term map of restrict(space, e), in order, by two steps.

    First x_e := prod over k != e of x_k^(-d_k/d_e) is substituted in scal,
    merging equal monomials into the first one's place and dropping zero
    coefficients; then x_e, now unused, is dropped and the indices above it
    shift down by one.  Built with the public constructors only.
    """
    scal = space.scalar_curvature()
    repl = {k: F(-d, space.dims[e]) for k, d in enumerate(space.dims) if k != e}
    pairs = []
    for key, c in scal.terms.items():
        exps = dict(key)
        p = exps.pop(e, 0)
        for k, a in repl.items():
            exps[k] = exps.get(k, 0) + p * a
        pairs.append((c, exps))
    substituted = Signomial.from_terms(space.r, pairs)
    dropped = {
        tuple(((i if i < e else i - 1), x) for i, x in key): c
        for key, c in substituted.terms.items()
    }
    return list(Signomial(space.r - 1, dropped).terms.items())


class TestRestrictedTermOrder:
    """The float kernels sum in term order, so restrict must give the term
    map of the two-step reference item for item, in insertion order."""

    @settings(max_examples=100, deadline=None)
    @given(spaces())
    def test_drawn_spaces_match_the_two_step_reference(self, space):
        for e in range(space.r):
            got = list(restrict(space, e).reduced.terms.items())
            assert got == _reference_restricted_terms(space, e)
            # canonical as built, every number a Fraction
            assert all(key == _monomial(key, space.r - 1) for key, _ in got)
            assert all(type(c) is F and all(type(x) is F for _, x in key) for key, c in got)

    @pytest.mark.parametrize(
        "space, e",
        [(entry.space, e) for entry in default_entries() for e in range(entry.space.r)],
        ids=lambda v: v.name if isinstance(v, HomogeneousSpace) else str(v),
    )
    def test_catalog_spaces_match_the_two_step_reference(self, space, e):
        assert list(restrict(space, e).reduced.terms.items()) == _reference_restricted_terms(space, e)


@settings(deadline=None)
@given(spaces(), st.data())
def test_restrict_then_eval_consistent(space, data):
    # the chart's value at p is scal's value at the inflated point
    e = data.draw(st.integers(0, space.r - 1))
    chart = restrict(space, e)
    point = data.draw(st.lists(st.floats(0.25, 4.0), min_size=chart.arity, max_size=chart.arity))
    full, scal = chart.inflate(point), space.scalar_curvature()
    direct = scal.eval_float(full)
    scale = max(abs(direct), scal.partials_float(full, 0, absolute=True)[0], 1.0)
    assert abs(chart.reduced.eval_float(point) - direct) <= 1e-9 * scale


class TestJacobiEigensolver:
    def test_zero_matrix(self):
        vals, vecs = jacobi_eigh([[0.0] * 3 for _ in range(3)])
        assert vals == [0.0] * 3
        assert vecs == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def test_diagonal_matrix(self):
        vals, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(vals, [-1.0, 2.0, 3.0])

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for size in (2, 3, 5):
            a = rng.normal(size=(size, size))
            a = (a + a.T) / 2
            vals, vecs = jacobi_eigh(a.tolist())
            assert type(vals) is list and all(type(row) is list for row in vecs)
            vals, vecs = np.array(vals), np.array(vecs)
            scale = np.abs(a).max()
            assert np.abs(vecs @ np.diag(vals) @ vecs.T - a).max() < 1e-12 * scale
            assert np.abs(vecs.T @ vecs - np.eye(size)).max() < 1e-12
            assert np.all(np.diff(vals) >= 0)

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        vals, _ = jacobi_eigh(a)
        assert np.allclose(vals, np.linalg.eigvalsh(a), atol=1e-10 * np.abs(a).max())

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_symmetry_is_relative_below_scale_one(self):
        # 10% asymmetric at scale 2e-14: an absolute 1e-12 test let it through
        with pytest.raises(ValueError, match="not symmetric"):
            jacobi_eigh([[1e-14, 1e-15], [0.0, 2e-14]])
        # roundoff asymmetry at the same scale is still symmetric
        vals, _ = jacobi_eigh([[1e-14, 1e-15], [1e-15 * (1 + 2 ** -52), 2e-14]])
        assert len(vals) == 2

    @pytest.mark.parametrize("bad", [[1.0, 2.0], [[1.0, 2.0]], [[1.0], [2.0, 3.0]],
                                     [[[1.0]]]])
    def test_non_square_rejected(self, bad):
        with pytest.raises(ValueError, match="square"):
            jacobi_eigh(bad)

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, entry):
        # not left to the symmetry check, where inf - inf is a NaN that warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                jacobi_eigh([[entry]])
            with pytest.raises(ValueError, match="non-finite"):
                jacobi_eigh([[1.0, 0.0], [0.0, entry]])

    def test_empty_matrix_has_empty_eigenpairs(self):
        assert jacobi_eigh([]) == ([], [])


class TestSpectrumAndKernel:
    def test_su4_kernel_direction(self):
        chart = restrict(su_n_space(4))
        cp = CriticalPoint.at(chart, (1.0, 1.0))
        vals, vecs = np.array(cp.eigenvalues), np.array(cp.eigenvectors)
        near_zero = np.abs(vals) < 1e-9
        assert near_zero.sum() == 1
        vec = vecs[:, near_zero][:, 0]
        target = np.array([-1.0, 1.0]) / np.sqrt(2)
        assert abs(abs(vec @ target) - 1.0) < 1e-12

    def test_kernel_basis_normalization(self):
        chart = restrict(su_n_space(4))
        (vec,) = CriticalPoint.at(chart, (1.0, 1.0)).kernel()
        assert vec[0] > 0  # first nonzero coordinate positive
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_quaternionic_kernel_direction(self):
        entry = build("su2n_mod_spn", 3)
        (vec,) = CriticalPoint.at(entry.chart, entry.critical_point, kernel_tol=1e-7).kernel()
        target = np.array([1.0, -0.25])
        target /= np.linalg.norm(target)
        assert abs(abs(vec @ target) - 1.0) < 1e-8

    def test_negative_definite_kernel_empty(self):
        chart = synthetic_chart(sig(1, (2, {0: 1}), (-1, {0: 2})))  # 2x - x^2
        assert CriticalPoint.at(chart, (1.0,)).kernel() == []

    def test_kernel_basis_diagonalizes_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(chart_mod, "jacobi_eigh", lambda m: calls.append(m) or jacobi_eigh(m))
        (vec,) = CriticalPoint.at(restrict(su_n_space(4)), (1.0, 1.0)).kernel()
        assert len(calls) == 1

    def test_kernel_reads_the_band_the_point_was_labelled_with(self):
        # with kernel_tol = 2 both eigenvalues lie in the band, so the point
        # is Degenerate and its kernel is the whole plane
        chart = build("su_n", 5).chart
        cp = CriticalPoint.at(chart, (1, 1), kernel_tol=2.0)
        assert cp.label is Classification.DEGENERATE
        assert len(cp.kernel()) == 2


class TestKernelTolerance:
    """kernel_tol is a finite number >= 0: -1 would label su_n n=4's
    degenerate point LocalMaxCandidate, NaN or inf every point Degenerate."""

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_tolerance_rejected(self, tol):
        chart = restrict(su_n_space(4))
        with pytest.raises(ValueError, match="kernel_tol must be a finite number >= 0"):
            CriticalPoint.at(chart, (1.0, 1.0), kernel_tol=tol)
        with pytest.raises(ValueError, match="kernel_tol must be a finite number >= 0"):
            find_critical_points(chart, per_axis=2, kernel_tol=tol)

    def test_zero_tolerance_is_accepted(self):
        chart = restrict(su_n_space(4))
        assert CriticalPoint.at(chart, (1.0, 1.0), kernel_tol=0.0).kernel_band == 0.0
        assert find_critical_points(chart, per_axis=2, kernel_tol=0.0)


class TestClassify:
    def test_degenerate_unitary_family(self):
        chart = restrict(su_n_space(5))
        assert CriticalPoint.at(chart, (1.0, 1.0)).label is Classification.DEGENERATE

    def test_degenerate_one_variable_chart(self):
        chart = restrict(e6_space(), eliminated=0)
        assert CriticalPoint.at(chart, (1.0,)).label is Classification.DEGENERATE

    def test_noncritical_point(self):
        chart = restrict(e6_space(), eliminated=0)
        assert CriticalPoint.at(chart, (1.4,)).label is Classification.NOT_CRITICAL

    def test_local_max_candidate(self):
        chart = synthetic_chart(sig(1, (2, {0: 1}), (-1, {0: 2})))
        assert CriticalPoint.at(chart, (1.0,)).label is Classification.LOCAL_MAX_CANDIDATE

    def test_point_of_a_one_summand_slice_is_labelled(self):
        # the slice is one metric: an empty spectrum, so no eigenvalue is
        # above the band and every one is below it
        space = space_from_dict({"name": "one", "dims": [3],
                                 "triples": [{"i": 0, "j": 0, "k": 0, "value": 1}]})
        cp = CriticalPoint.at(restrict(space), ())
        assert (cp.coords, cp.grad_norm, cp.eigenvalues) == ((), 0.0, ())
        assert cp.label is Classification.LOCAL_MAX_CANDIDATE
        assert cp.kernel() == []

    def test_saddle_label_for_positive_eigenvalue(self):
        chart = synthetic_chart(sig(1, (1, {0: 1}), (1, {0: -1})))  # x + 1/x
        assert CriticalPoint.at(chart, (1.0,)).label is Classification.SADDLE

    def test_nonpositive_point_rejected(self):
        chart = restrict(e6_space(), eliminated=0)
        with pytest.raises(ValueError):
            CriticalPoint.at(chart, (0.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_point_rejected(self, bad):
        chart = restrict(su_n_space(4))
        with pytest.raises(ValueError, match="finite"):
            CriticalPoint.at(chart, (1.0, bad))

    @pytest.mark.parametrize("n", [16, 37, 39])
    def test_roundoff_hessian_on_flag_chart_is_kernel(self, n):
        # the exact Hessian at (1) is 0; in floats its one eigenvalue is
        # +-1e-14 of cancellation, which must not count as a sign
        chart = restrict(so2n_flag_space(n))
        cp = CriticalPoint.at(chart, (1.0,))
        assert abs(cp.eigenvalues[0]) < cp.kernel_band
        assert cp.label is Classification.DEGENERATE
        assert [list(v) for v in cp.kernel()] == [[1.0]]

    def test_overflowing_point_is_value_error_naming_it(self):
        # 5 x^2 + 20 x^-1 - 5/2 x^-4 at x = 1e-150: x^-4 overflows a float
        chart = restrict(e6_space(), eliminated=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\(1e-150,\).*overflows"):
                CriticalPoint.at(chart, (1e-150,))

    def test_cancelling_overflow_is_value_error_not_degenerate(self):
        # at x = 1/32 terms of about +-1e308 overflow to +-inf and cancel, so the
        # float gradient and Hessian are NaN; this was labelled Degenerate
        space = HomogeneousSpace("nan", (1, 1), (F(10) ** 306, 1), {(0, 0, 1): F(10) ** 306})
        chart = restrict(space)
        assert math.isnan(chart.reduced.partial(0).eval_float((1 / 32,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\(0\.03125,\).*overflows"):
                CriticalPoint.at(chart, (1 / 32,))

    def test_large_finite_gradient_is_labelled_without_warning(self):
        # at x = 1e200 the gradient is ~1e201, whose square overflows
        chart = restrict(e6_space(), eliminated=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp = CriticalPoint.at(chart, (1e200,))
        assert cp.label is Classification.NOT_CRITICAL
        assert cp.grad_norm == abs(chart.reduced.partials_float((1e200,), 1)[0])


class TestNewton:
    def test_converges_to_unit_point(self):
        chart = restrict(su_n_space(3))
        point = newton_critical(chart, (0.9, 1.1))
        assert point is not None
        res = CriticalPoint.at(chart, point)
        assert np.allclose(res.coords, (1.0, 1.0), atol=1e-10)
        assert res.grad_norm < 1e-12
        assert res.label is Classification.DEGENERATE

    def test_one_variable_chart(self):
        chart = restrict(e6_space(), eliminated=0)
        res = newton_critical(chart, (1.2,))
        assert res is not None
        assert res[0] == pytest.approx(1.0, abs=1e-12)

    def test_start_independence_within_basin(self):
        chart = restrict(su_n_space(4))
        for start in ((0.92, 1.05), (1.08, 0.95), (1.1, 1.1)):
            res = newton_critical(chart, start)
            assert res is not None
            assert np.allclose(res, (1.0, 1.0), atol=1e-9)

    def test_gradient_without_zero_reports_no_convergence(self):
        chart = synthetic_chart(sig(1, (1, {0: 1})))  # f = x, gradient 1
        assert newton_critical(chart, (1.0,)) is None

    def test_nonpositive_start_rejected(self):
        chart = restrict(e6_space(), eliminated=0)
        with pytest.raises(ValueError):
            newton_critical(chart, (-1.0,))

    def test_overflow_is_a_failed_start(self):
        # [011] = 3/2, [111] = 7/2 on dims (27, 1) has no critical point;
        # Newton iterates run off until terms overflow a float
        space = HomogeneousSpace(name="overflow", dims=(27, 1),
                                 triples={(0, 1, 1): F(3, 2), (1, 1, 1): F(7, 2)})
        chart = restrict(space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert newton_critical(chart, (4.0,)) is None
            assert find_critical_points(chart) == []

    def test_coefficient_beyond_a_double_names_its_partial(self):
        # f = 1e400 x^2 is exact, but the step's Hessian coefficient is not a
        # double: that is an error in the chart, not a failed start
        chart = synthetic_chart(sig(1, (10 ** 400, {0: 2})))
        with pytest.raises(OverflowError, match=r"partial \(0, 0\) of order 2 has coefficient 2e\+400"):
            newton_critical(chart, (1.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_start_rejected(self, bad):
        chart = restrict(su_n_space(4))
        with pytest.raises(ValueError, match="finite"):
            newton_critical(chart, (bad, 1.0))


def _reference_one_by_one(h, g):
    # H delta = -g for H = [[h]]: the division, except that h = 0 drops the
    # zero eigenvalue (the minimum-norm answer 0) and a NaN h has no answer
    if h == 0:
        return [0.0]
    if math.isnan(h):
        return [math.nan]
    return [-g / h]


any_float = st.floats(allow_nan=True, allow_infinity=True)
# g * g overflows above about 1.3e154 and underflows below about 1.5e-162
finite_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e160, -1e200, 1e-170, -5e-324, 1.4e154, 1e-162]),
)


class TestOneUnknownOnFloats:
    @settings(max_examples=500, deadline=None)
    @given(h=st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), any_float),
           g=finite_float)
    def test_one_by_one_solve_is_the_division(self, h, g):
        got = chart_mod.solve([[h]], [-g])
        assert [x.hex() for x in got] == [x.hex() for x in _reference_one_by_one(h, g)]

    @settings(max_examples=500, deadline=None)
    @given(g=st.one_of(finite_float, st.sampled_from([math.inf, -math.inf])))
    def test_one_vector_norm_has_the_bits_of_numpy(self, g):
        with np.errstate(all="ignore"):
            want = float(np.linalg.norm(np.array([g])))
        assert chart_mod.vector_norm([g]).hex() == want.hex()


# -- the plain-float linear algebra, with numpy as the oracle -------------------


def _mirrored(draw, m, entries):
    a = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            a[i][j] = a[j][i] = draw(entries)
    return a


@st.composite
def _symmetric_matrices(draw):
    # entries in [-1, 1] times a power of two, so the scaling is exact
    a = _mirrored(draw, draw(st.integers(1, 6)), st.floats(-1.0, 1.0))
    scale = 2.0 ** draw(st.integers(-60, 60))
    return [[x * scale for x in row] for row in a]


@st.composite
def _well_conditioned(draw):
    # entries +-(m + 1) on the graph of a symmetric permutation (the diagonal,
    # or swapped pairs, which leave small pivots to the pivot search) and
    # entries in [-1, 1] elsewhere: by Weyl every |eigenvalue| is at least 2
    # and at most 2m
    m = draw(st.integers(1, 6))
    a = _mirrored(draw, m, st.floats(-1.0, 1.0))
    order, partner = draw(st.permutations(range(m))), list(range(m))
    for t in range(draw(st.integers(0, m // 2))):
        i, j = order[2 * t], order[2 * t + 1]
        partner[i], partner[j] = j, i
    for i in range(m):
        if partner[i] >= i:
            a[i][partner[i]] = a[partner[i]][i] = draw(st.sampled_from([-1.0, 1.0])) * (m + 1)
    b = [draw(st.floats(-1e3, 1e3)) for _ in range(m)]
    return a, b


@st.composite
def _singular(draw):
    # a well-conditioned block in some rows and columns, zeros elsewhere: the
    # elimination meets a pivot that is exactly 0
    a, _ = draw(_well_conditioned())
    k = len(a)
    m = draw(st.integers(k + 1, 7))
    order = draw(st.permutations(range(m)))
    full = [[0.0] * m for _ in range(m)]
    for i in range(k):
        for j in range(k):
            full[order[i]][order[j]] = a[i][j]
    b = [draw(st.floats(-1e3, 1e3)) for _ in range(m)]
    return full, b


class TestPlainLinearAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(_symmetric_matrices())
    # subnormal entries: unscaled, the eigenvalues were one subnormal step
    # off and the residual 5e-324, above the bounds
    @example([[0.0, 3.533572608e-314], [3.533572608e-314, 0.0]])
    @example([[0.0, 4.41696576e-315], [4.41696576e-315, 4.41696576e-315]])
    # the residual, which numpy computes in subnormal arithmetic, is one
    # subnormal step, 5e-324, where 1e-12 * max|a| is 2.2e-325
    @example([[0.0, 2.2250738585e-313], [2.2250738585e-313, 2.2250738585e-313]])
    def test_jacobi_against_numpy_eigh(self, a):
        vals, vecs = jacobi_eigh(a)
        arr, v = np.array(a), np.array(vecs)
        scale = np.abs(arr).max()
        assert np.abs(np.array(vals) - np.linalg.eigh(arr)[0]).max() <= 1e-12 * scale
        # below the subnormal step no bound can be met: each entry of the
        # residual rounds once per product and sum, a subnormal step each
        residual_floor = 2 * len(a) * math.ulp(0.0)
        assert np.abs(arr @ v - v * np.array(vals)).max() <= max(1e-12 * scale, residual_floor)
        assert np.abs(v.T @ v - np.eye(len(a))).max() <= 1e-12
        assert vals == sorted(vals)

    @settings(max_examples=200, deadline=None)
    @given(_well_conditioned())
    @example(([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0]))  # wrong by 1 without pivoting
    def test_solve_against_numpy_solve(self, case):
        a, b = case
        x = chart_mod.solve(a, b)
        arr, want = np.array(a), np.linalg.solve(np.array(a), np.array(b))
        norm_a, norm_b = np.linalg.norm(arr, 2), np.linalg.norm(b)
        assert np.linalg.norm(arr @ np.array(x) - b) <= 1e-14 * norm_a * np.linalg.norm(x) + 1e-300
        assert np.linalg.norm(np.array(x) - want) <= 1e-13 * max(np.linalg.norm(want), norm_b)

    @settings(max_examples=200, deadline=None)
    @given(_singular())
    @example(([[1.0, 1.0], [1.0, 1.0]], [1.0, 3.0]))  # minimum-norm answer (1, 1)
    @example(([[-2.0, 0.0], [0.0, 0.0]], [2.0, -1.0]))  # minimum-norm answer (-1, 0)
    # a zero pivot whose Jacobi spectrum keeps a roundoff eigenvalue, 1e-16
    # and -4e-17, that the least-squares solution must drop
    @example(([[1.0, 3.0], [3.0, 9.0]], [1.0, 1.0]))
    @example(([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], [1.0, 2.0, 4.0]))
    def test_singular_solve_is_the_minimum_norm_least_squares(self, case):
        a, b = case
        x = chart_mod.solve(a, b)
        want = np.linalg.lstsq(np.array(a), np.array(b), rcond=None)[0]
        assert np.linalg.norm(np.array(x) - want) <= 1e-12 * max(np.linalg.norm(b), 1e-300)

    @pytest.mark.parametrize("a", [[[math.nan]], [[1.0, math.nan], [math.nan, 2.0]],
                                   [[math.inf, math.inf], [math.inf, math.inf]]])
    def test_non_finite_matrix_without_a_finite_answer_is_nan(self, a):
        # the elimination ends in NaN, and a non-finite matrix has no spectrum
        assert all(map(math.isnan, chart_mod.solve(a, [1.0] * len(a))))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from([1e160, -1e-170, 5e-324])),
                    max_size=5))
    def test_written_out_norm_has_the_bits_of_vector_norm(self, v):
        # the generated Newton search and flow stop test use _norm_source
        names = {f"x{i}": x for i, x in enumerate(v)}
        got = eval(chart_mod._norm_source("x", len(v)), {"sqrt": math.sqrt}, names)
        want = 0.0
        for x in v:
            want += x * x
        assert got.hex() == math.sqrt(want).hex() == chart_mod.vector_norm(v).hex()

    @pytest.mark.parametrize("per_axis", range(10))
    def test_start_grid_has_the_bits_of_numpy(self, per_axis):
        want = np.exp(np.linspace(math.log(0.25), math.log(4.0), per_axis))
        assert [x.hex() for x in chart_mod._start_axis(per_axis)] == [x.hex() for x in want.tolist()]

    def test_negative_grid_is_rejected(self):
        with pytest.raises(ValueError, match="per_axis"):
            chart_mod._start_axis(-1)


class TestMultiStart:
    def test_finds_unit_critical_point(self):
        chart = restrict(e6_space(), eliminated=0)
        points = find_critical_points(chart)
        assert any(abs(cp.coords[0] - 1.0) < 1e-9 for cp in points)
        coords = [cp.coords for cp in points]
        assert coords == sorted(coords)

    def test_casimir_only_slice_has_equal_coordinate_point(self):
        # with no brackets the reduced function still has one critical point,
        # at the equal-coordinate metric on the slice
        space = HomogeneousSpace(name="flat", dims=(2, 3))
        chart = restrict(space, eliminated=1)
        points = find_critical_points(chart)
        assert len(points) == 1
        assert points[0].coords[0] == pytest.approx(1.0, abs=1e-10)
        assert points[0].label is Classification.SADDLE

    def test_one_summand_slice_is_one_labelled_point(self):
        # arity 0: the grid holds the empty start only, Newton converges at
        # once, and the snap has no coordinate to compare
        space = space_from_dict({"name": "one", "dims": [3],
                                 "triples": [{"i": 0, "j": 0, "k": 0, "value": 1}]})
        chart = restrict(space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = newton_critical(chart, ())
            points = find_critical_points(chart)
        assert point == ()
        assert points == [CriticalPoint.at(chart, ())]
        assert points[0].label is Classification.LOCAL_MAX_CANDIDATE

    def test_kernel_method_on_result(self):
        chart = restrict(su_n_space(4))
        (cp,) = [
            p for p in find_critical_points(chart)
            if np.allclose(p.coords, (1.0, 1.0), atol=1e-8)
        ]
        kernel = cp.kernel()
        assert len(kernel) == 1


# -- Newton against the solver that re-evaluated its iterates ---------------------
# _reference_* is the Newton search as it was before iterates carried their
# gradient and before the search deduplicated ahead of labelling: it
# evaluates each iterate up to three times and labels every converged start,
# but must land on the same points bit for bit.


def _reference_newton_step(chart, u):
    grad = chart.reduced.partials_float(u, 1)
    delta = chart_mod.solve(chart.reduced.hessian_float(u), [-g for g in grad])
    if not all(map(math.isfinite, delta)) or not any(delta):
        return None
    gnorm = chart_mod.vector_norm(grad)
    damp = 1.0
    for _ in range(60):
        trial = [x + damp * d for x, d in zip(u, delta)]
        if min(trial, default=1.0) > 0:
            tnorm = chart_mod.vector_norm(chart.reduced.partials_float(trial, 1))
            if math.isfinite(tnorm) and tnorm < gnorm:
                return trial
        damp *= 0.5
    return None


def _reference_newton_converge(chart, u, tol, max_iter):
    converged = False
    for _ in range(max_iter):
        grad = chart.reduced.partials_float(u, 1)
        if not all(map(math.isfinite, grad)):
            return None
        if chart_mod.vector_norm(grad) < tol:
            converged = True
            break
        nxt = _reference_newton_step(chart, u)
        if nxt is None:
            return None
        u = nxt
    if not converged:
        return None
    best_u = u
    best_norm = chart_mod.vector_norm(chart.reduced.partials_float(u, 1))
    for _ in range(12):
        nxt = _reference_newton_step(chart, best_u)
        if nxt is None:
            break
        norm = chart_mod.vector_norm(chart.reduced.partials_float(nxt, 1))
        if norm < best_norm:
            best_u, best_norm = nxt, norm
        else:
            break
    return best_u


def _reference_exact_snap(chart, u):
    """exact_snap without the chart's memo: every call rounds u and, when
    the rounding is within 1e-6, tests the exact gradient there."""
    try:
        snapped = tuple(F(float(x)).limit_denominator(1000) for x in u)
        if any(s <= 0 for s in snapped):
            return None
        if max((abs(float(s) - float(x)) for s, x in zip(snapped, u)), default=0.0) > 1e-6:
            return None
        for i in range(chart.arity):
            if exact_term_sum(chart.reduced.partial(i), snapped) != 0:
                return None
    except ArithmeticError:
        return None
    return snapped


def _reference_newton_critical(chart, start):
    u = [float(x) for x in start]
    try:
        best_u = _reference_newton_converge(chart, u, 1e-12, 100)
    except OverflowError:
        return None
    if best_u is None:
        return None
    snapped = _reference_exact_snap(chart, best_u)
    return CriticalPoint.at(chart, best_u if snapped is None else snapped)


def _two_summand(dims, triples):
    # every column sum of [ijk] is at most d_k, as for a homogeneous space with b = 1
    return restrict(HomogeneousSpace(name=f"two-{dims}", dims=dims, triples=triples))


NEWTON_CHARTS = {
    "e6": build("e6_su2_so6").chart,
    "su_n-4": build("su_n", 4).chart,
    "su_n-5": build("su_n", 5).chart,
    "so2n_flag-8": build("so2n_flag", 8).chart,
    "su2n_mod_spn-6": build("su2n_mod_spn", 6).chart,
    "two-1-12": _two_summand((1, 12), {(0, 1, 1): F(1, 2)}),
    "two-3-8": _two_summand((3, 8), {(0, 0, 1): F(1), (1, 1, 1): F(2)}),  # no critical point
    "two-4-9": _two_summand((4, 9), {(0, 1, 1): F(2)}),
    "two-7-7": _two_summand((7, 7), {(0, 0, 1): F(2), (0, 1, 1): F(1)}),
    "two-8-3": _two_summand((8, 3), {(0, 0, 1): F(2)}),
    # arity 3, a 3x3 elimination per step: one LocalMaxCandidate near
    # (0.876, 1.141, 1.141)
    "four-1-1-1-1": restrict(HomogeneousSpace(name="four", dims=(1, 1, 1, 1),
                                              triples={(0, 1, 2): F(1), (1, 2, 3): F(1)})),
}
GRID = np.exp(np.linspace(math.log(0.25), math.log(4.0), 5))


def _reference_find_critical_points(chart):
    found = []
    for start in itertools.product(GRID, repeat=chart.arity):
        res = _reference_newton_critical(chart, start)
        if res is None or res.label is Classification.NOT_CRITICAL:
            continue
        if any(math.dist(res.coords, f.coords) < 1e-8 for f in found):
            continue
        found.append(res)
    return sorted(found, key=lambda cp: cp.coords)


def _labelled(chart, point):
    return None if point is None else CriticalPoint.at(chart, point)


class TestNewtonCarriesGradient:
    @pytest.mark.parametrize("name", sorted(NEWTON_CHARTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_critical_point_as_reference(self, name, data):
        chart = NEWTON_CHARTS[name]
        start = data.draw(st.lists(st.floats(-4.0, 4.0).map(math.exp),
                                   min_size=chart.arity, max_size=chart.arity))
        # repr prints every float round-trip exactly, so equal reprs are bit-equal
        assert repr(_labelled(chart, newton_critical(chart, start))) == repr(
            _reference_newton_critical(chart, start)
        )

    @pytest.mark.parametrize("name", sorted(NEWTON_CHARTS))
    def test_grid_starts_match_reference(self, name):
        chart = NEWTON_CHARTS[name]
        for start in itertools.product(GRID, repeat=chart.arity):
            assert repr(_labelled(chart, newton_critical(chart, start))) == repr(
                _reference_newton_critical(chart, start)
            )

    @pytest.mark.parametrize("name", sorted(NEWTON_CHARTS))
    def test_no_point_is_evaluated_twice(self, monkeypatch, name):
        chart = NEWTON_CHARTS[name]
        evaluated, labelled = [], []
        partials_float = Signomial.partials_float
        at = CriticalPoint.at.__func__

        def counted(self, point, order, absolute=False):
            if order == 1:
                evaluated.append(tuple(float(x) for x in point))
            return partials_float(self, point, order, absolute)

        def label(cls, *args, **kwargs):
            labelled.append(args)
            return at(cls, *args, **kwargs)

        monkeypatch.setattr(Signomial, "partials_float", counted)
        monkeypatch.setattr(CriticalPoint, "at", classmethod(label))
        for start in itertools.product(GRID, repeat=chart.arity):
            evaluated.clear()
            newton_critical(chart, start)
            assert evaluated
            assert len(set(evaluated)) == len(evaluated), start
        assert labelled == []  # newton_critical returns a point, it does not label


class TestSearchLabelsOnce:
    @pytest.mark.parametrize("name", sorted(NEWTON_CHARTS))
    def test_same_points_as_label_then_deduplicate(self, name):
        chart = NEWTON_CHARTS[name]
        assert repr(find_critical_points(chart)) == repr(_reference_find_critical_points(chart))

    @pytest.mark.parametrize("name", ["e6", "su_n-4", "su_n-5"])
    def test_no_converged_duplicate_is_labelled(self, monkeypatch, name):
        # at the label-then-deduplicate search the su_n n=5 point (1, 1) was
        # labelled once for each of the 7 starts that reach it
        chart = NEWTON_CHARTS[name]
        labels = []
        at = CriticalPoint.at.__func__

        def label(cls, chart, point, **kwargs):
            cp = at(cls, chart, point, **kwargs)
            kept = [c for c in labels if c.label is not Classification.NOT_CRITICAL]
            assert all(np.linalg.norm(np.array(cp.coords) - np.array(c.coords)) >= 1e-8
                       for c in kept), cp.coords
            labels.append(cp)
            return cp

        monkeypatch.setattr(CriticalPoint, "at", classmethod(label))
        points = find_critical_points(chart)
        assert points
        assert {cp.coords for cp in points} <= {cp.coords for cp in labels}


# the four index multisets of a two-summand space
TWO_SUMMAND_MULTISETS = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]


@st.composite
def _admissible_two_summand_charts(draw):
    """A random admissible two-summand space, restricted: dims 1..30, 2 to 4
    of the four index multisets, values p/q with p <= 12 and q <= 4, and
    every column sum (over ordered i, j) of [ijk] at most d_k."""
    dims = (draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    keys = draw(st.lists(st.sampled_from(TWO_SUMMAND_MULTISETS), min_size=2, max_size=4,
                         unique=True))
    triples = {key: F(draw(st.integers(1, 12)), draw(st.integers(1, 4))) for key in keys}
    sums = [0, 0]
    for key, value in triples.items():
        for _, _, k in set(itertools.permutations(key)):
            sums[k] += value
    assume(all(s <= d for s, d in zip(sums, dims)))
    return restrict(HomogeneousSpace(name="drawn", dims=dims, triples=triples))


def _file_chart(data):
    """The chart of a space file's contents, as catalog.load_custom builds it."""
    space = space_from_dict({k: v for k, v in data.items() if k != "eliminate"})
    return restrict(space, data.get("eliminate"))


def _with_search_space_examples(test):
    for name in sorted(SEARCH_SPACES):
        test = example(_file_chart(SEARCH_SPACES[name]))(test)
    return test


class TestSearchSnapsOnce:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(_admissible_two_summand_charts())
    @_with_search_space_examples
    def test_same_points_as_snapping_every_start(self, chart):
        found = repr(find_critical_points(chart))
        assert found == repr(_reference_find_critical_points(chart))
        # a second search on the chart finds its rounded points in the memo
        assert repr(find_critical_points(chart)) == found

    @pytest.mark.parametrize("name", ["flag-4", "e6"])
    def test_custom_search_tests_each_rounded_point_once(self, monkeypatch, capsys, tmp_path,
                                                         name):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(SEARCH_SPACES[name]))
        snap, line_exact = chart_mod.exact_snap, Signomial.line_exact
        phase, snaps, rounded, tested = [None], [], set(), []

        def snapper(where):
            def counted(chart, u):
                snaps.append(where)
                if where == "search":
                    r = tuple(F(float(x)).limit_denominator(1000) for x in u)
                    if max(abs(float(s) - float(x)) for s, x in zip(r, u)) <= 1e-6:
                        rounded.add(r)
                phase[0] = where
                try:
                    return snap(chart, u)
                finally:
                    phase[0] = None
            return counted

        def counted_line(self, base, direction):
            if phase[0] is not None:
                tested.append((phase[0], tuple(base)))
            return line_exact(self, base, direction)

        monkeypatch.setattr(chart_mod, "exact_snap", snapper("search"))
        monkeypatch.setattr(cli, "exact_snap", snapper("cli"))
        monkeypatch.setattr(Signomial, "line_exact", counted_line)
        assert cli.main(["custom", "--file", str(path), "--search"]) == 0
        assert "cli" in snaps and snaps.count("search") > len(rounded) > 0
        # one chart coordinate: one exact line series per gradient test
        assert sorted(point for _, point in tested) == sorted(rounded)
        assert all(where == "search" for where, _ in tested)

    def test_a_point_that_does_not_round_leaves_the_memo_empty(self):
        # random-1's LocalMaxCandidate is 1.6e-6 from 153/46; its Saddle is
        # 9e-7 from 171/196, where the exact gradient does not vanish
        chart = _file_chart(SEARCH_SPACES["random-1"])
        assert chart_mod.exact_snap(chart, (3.3260853522681746,)) is None
        assert chart._snaps == {}
        assert chart_mod.exact_snap(chart, (0.87244984422645677,)) is None
        assert chart._snaps == {(F(171, 196),): ((float(F(171, 196)),), False)}
        # next to a kept point the verdict is read, not tested again
        for u in (0.87244984422645677, float(F(171, 196))):
            assert chart_mod.exact_snap(chart, (u,)) is None
        assert len(chart._snaps) == 1

    def test_a_point_next_to_a_kept_one_is_not_rounded_again(self, monkeypatch):
        chart = _file_chart(SEARCH_SPACES["e6"])
        assert chart_mod.exact_snap(chart, (1.0 + 1e-9,)) == (F(1),)
        monkeypatch.setattr(F, "limit_denominator", None)  # any rounding now raises
        for u in (1.0 - 9e-9, 1.0, 1.0 + 9e-9):
            assert chart_mod.exact_snap(chart, (u,)) == (F(1),)
        assert list(chart._snaps) == [(F(1),)]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 1e12), st.floats(-1.0, 1.0), st.integers(-3, 3))
    @example(2.0 ** 33 - 2.0 ** -20, 0.0, 0)  # its double's neighbour below 2^33
    @example(2.0 ** 33, 0.0, -1)
    @example(0.87244984422645677, 1.0, 0)
    def test_a_point_within_1e_8_of_a_rounding_rounds_to_it(self, x, offset, steps):
        # what exact_snap's memo read rests on: a u within 1e-8 of the
        # doubles of a rational that an iterate x rounded to, within 1e-6,
        # rounds to that rational
        r = F(x).limit_denominator(1000)
        near = float(r)
        assume(abs(near - x) <= 1e-6)
        u = near + offset * 1e-8
        for _ in range(abs(steps)):
            u = math.nextafter(u, math.copysign(math.inf, steps))
        assume(abs(u - near) < 1e-8)
        assert F(u).limit_denominator(1000) == r

    def test_a_rejected_iterate_is_not_rounded_again(self, monkeypatch):
        chart = _file_chart(SEARCH_SPACES["random-1"])
        limit_denominator, rounded = F.limit_denominator, []

        def counted(self, max_denominator=1000000):
            rounded.append(float(self))
            return limit_denominator(self, max_denominator)

        monkeypatch.setattr(F, "limit_denominator", counted)
        u = 3.3260853522681746  # 1.6e-6 from 153/46
        for _ in range(3):
            assert chart_mod.exact_snap(chart, (u,)) is None
        assert rounded == [u] and chart._rejected == {(u,)} and chart._snaps == {}
        # an iterate 9e-7 from 171/196, where the exact gradient does not vanish
        v = 0.87244984422645677
        for _ in range(3):
            assert chart_mod.exact_snap(chart, (v,)) is None
        assert rounded == [u, v] and chart._rejected == {(u,), (v,)}
        # the doubles are the key: the next double is rounded
        assert chart_mod.exact_snap(chart, [math.nextafter(u, 4.0)]) is None
        assert rounded == [u, v, math.nextafter(u, 4.0)] and len(chart._rejected) == 3

    @pytest.mark.parametrize("name", sorted(SEARCH_SPACES))
    def test_custom_search_rounds_each_iterate_once(self, monkeypatch, capsys, tmp_path, name):
        # every chart here has one coordinate: one rounding per iterate,
        # whether it fails the 1e-6 test or its point the gradient test
        path = tmp_path / "space.json"
        path.write_text(json.dumps(SEARCH_SPACES[name]))
        limit_denominator, rounded = F.limit_denominator, Counter()

        def counted(self, max_denominator=1000000):
            rounded[float(self)] += 1
            return limit_denominator(self, max_denominator)

        monkeypatch.setattr(F, "limit_denominator", counted)
        assert cli.main(["custom", "--file", str(path), "--search"]) in (0, 1)
        assert rounded and max(rounded.values()) == 1

    def test_memo_is_not_part_of_equality_hash_or_repr(self):
        chart, fresh = (_file_chart(SEARCH_SPACES["e6"]) for _ in range(2))
        assert chart_mod.exact_snap(chart, (1.0 + 1e-9,)) == (F(1),)
        assert chart_mod.exact_snap(chart, (1.00001,)) is None
        assert chart._snaps and chart._rejected and not (fresh._snaps or fresh._rejected)
        assert chart == fresh and hash(chart) == hash(fresh) and repr(chart) == repr(fresh)

    def test_search_and_labels_convert_each_partial_once(self, monkeypatch):
        reduced = NEWTON_CHARTS["four-1-1-1-1"].reduced
        f = Signomial(reduced.arity, reduced.terms)  # a fresh copy: no memo yet
        built = Counter()
        order_constants = Signomial._order_constants

        def counted(self, order):
            if order not in self._floats:  # a conversion, not a memo hit
                built[id(self), order] += 1
            return order_constants(self, order)

        monkeypatch.setattr(Signomial, "_order_constants", counted)
        f._compiled(chart_mod._search_template, 2, 1)
        CriticalPoint.at(synthetic_chart(f), (0.876, 1.141, 1.141))
        assert built == {(id(f), 1): 1, (id(f), 2): 1}
        assert f._partials == {}  # the constants come from f's terms


# -- the compiled Newton search against the list-based search it replaced ------------


def _list_newton_step(chart, u, grad, gnorm):
    """One damped Newton step from u on lists of floats, with the gradient
    and the norm of every trial from Signomial.partials_float and
    vector_norm: (trial, its gradient, its norm), or None when no step is
    possible.  This is the step as it ran before it was compiled."""
    f = chart.reduced
    delta = chart_mod.solve(f.hessian_float(u), [-g for g in grad])
    if not all(math.isfinite(d) for d in delta) or not any(delta):
        return None
    damp, last = 1.0, None
    for _ in range(60):
        trial = [x + damp * d for x, d in zip(u, delta)]
        if trial == u:
            break
        if trial != last and min(trial) > 0:
            tgrad = f.partials_float(trial, 1)
            tnorm = chart_mod.vector_norm(tgrad)
            if math.isfinite(tnorm) and tnorm < gnorm:
                return trial, tgrad, tnorm
        damp, last = damp * 0.5, trial
    return None


def _list_newton_steps(chart, start):
    """The iterates of the search as it ran before it was compiled: up to
    100 steps of _list_newton_step until the gradient norm is below 1e-12,
    then up to 12 polish steps.  (iterates, steps taken before the norm
    fell below 1e-12, or None when it never did)."""
    u = [float(x) for x in start]
    grad = chart.reduced.partials_float(u, 1)
    if not all(map(math.isfinite, grad)):
        return [u], None
    gnorm = chart_mod.vector_norm(grad)
    iterates = [u]
    for converged in range(100):
        if gnorm < 1e-12:
            break
        taken = _list_newton_step(chart, u, grad, gnorm)
        if taken is None:
            return iterates, None
        u, grad, gnorm = taken
        iterates.append(u)
    else:
        return iterates, None
    for _ in range(12):
        taken = _list_newton_step(chart, u, grad, gnorm)
        if taken is None:
            break
        u, grad, gnorm = taken
        iterates.append(u)
    return iterates, converged


def _list_newton_critical(chart, start):
    """newton_critical on _list_newton_steps: the last iterate, snapped as
    newton_critical snaps it, or None."""
    try:
        iterates, converged = _list_newton_steps(chart, start)
    except OverflowError:
        return None
    if converged is None:
        return None
    snapped = _reference_exact_snap(chart, iterates[-1])
    return tuple(iterates[-1]) if snapped is None else tuple(float(s) for s in snapped)


def _search_bits(search, chart, u):
    """The hex of every coordinate search(chart, u) returns, None, or the
    type of the error it ended with."""
    try:
        out = search(chart, u)
    except OverflowError as exc:
        return type(exc)
    return None if out is None else [x.hex() for x in out]


@st.composite
def _synthetic_steps(draw):
    arity = draw(st.integers(0, 3))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    pairs = [
        (draw(rational.filter(bool)),
         {i: draw(rational) for i in range(arity) if draw(st.booleans())})
        for _ in range(draw(st.integers(1, 4)))
    ]
    u = [draw(st.floats(0.25, 4.0)) for _ in range(arity)]
    return synthetic_chart(Signomial.from_terms(arity, pairs)), u


def _powers(fn):
    """The number of ** operations in a compiled kernel or Newton search
    (BINARY_POWER before Python 3.11, BINARY_OP ** from 3.11 on)."""
    return sum(ins.opname == "BINARY_POWER" or (ins.opname == "BINARY_OP" and ins.argrepr == "**")
               for ins in dis.get_instructions(fn))


# f = -(x - 1)^4: Newton moves x - 1 to about 2/3 of itself per step, so a
# far start takes about 100 steps to bring |f'| below 1e-12
QUARTIC = synthetic_chart(sig(1, (-1, {0: 4}), (4, {0: 3}), (-6, {0: 2}), (4, {0: 1}), (-1, {})))


class TestCompiledSearchMatchesListSearch:
    # rational exponents on charts of arity 0 to 3
    @settings(max_examples=300, deadline=None)
    @given(_synthetic_steps())
    @example((synthetic_chart(sig(0, (F(5, 4), {}))), []))
    # singular Hessian [[-2, 0], [0, 0]]: the least-squares direction (-1, 0)
    @example((synthetic_chart(sig(2, (-1, {0: 2}), (2, {0: 1}), (1, {1: 1}))), [2.0, 1.0]))
    # f = x^3 - 3x^2 at 1: a 1x1 system with h = 0
    @example((synthetic_chart(sig(1, (1, {0: 3}), (-3, {0: 2}))), [1.0]))
    # the full step lands at -10, outside the orthant
    @example((synthetic_chart(sig(1, (-10, {0: 1}), (F(-1, 2), {0: 2}))), [1.0]))
    # next to the maximum at 1 no trial lowers the roundoff gradient, and the
    # halved trials round to u
    @example((synthetic_chart(sig(1, (1, {0: F(1, 3)}), (F(-1, 3), {0: 1}))),
              [float.fromhex("0x1.ffffffffffffcp-1")]))
    # the gradient 4e159 squares beyond a double: the norm is inf at u and
    # at every trial, so no trial is progress
    @example((synthetic_chart(sig(1, (F(-1, 400), {0: -400}))), [0.4]))
    # the Hessian 399 * 2^-398 sends the trial to about 8e116, where x^399 overflows
    @example((synthetic_chart(sig(1, (-1, {0: 1}), (F(1, 400), {0: 400}))), [0.5]))
    def test_same_outcome(self, case):
        chart, u = case
        assert _search_bits(newton_critical, chart, u) == _search_bits(
            _list_newton_critical, chart, u
        )

    def test_convergence_on_the_hundredth_step_fails(self):
        # from 1.5e13 the norm falls below 1e-12 at the 99th step, from 2e13
        # at the 100th, after which the search checks no more
        def norm(u):
            return chart_mod.vector_norm(QUARTIC.reduced.partials_float(u, 1))

        iterates, converged = _list_newton_steps(QUARTIC, [1.5e13])
        assert converged == 99 and norm(iterates[99]) < 1e-12
        assert _search_bits(newton_critical, QUARTIC, [1.5e13]) == [iterates[-1][0].hex()]
        iterates, converged = _list_newton_steps(QUARTIC, [2e13])
        assert converged is None and len(iterates) == 101
        assert norm(iterates[99]) >= 1e-12 > norm(iterates[100])
        assert newton_critical(QUARTIC, [2e13]) is None

    @pytest.mark.parametrize("name", sorted(NEWTON_CHARTS))
    def test_search_writes_each_power_once(self, name):
        # the Hessian's statements once and the trial gradient's once: one
        # step body serves the Newton steps and the polish steps
        f = NEWTON_CHARTS[name].reduced
        search = f._compiled(chart_mod._search_template, 2, 1)
        hessian, gradient = (f._compiled(_kernel_template, order) for order in (2, 1))
        assert _powers(search) == _powers(hessian) + _powers(gradient)

    @pytest.mark.parametrize("name", ["e6", "su_n-5", "four-1-1-1-1"])
    def test_find_critical_points_binds_the_search_once(self, name):
        # a fresh chart of the same terms: its memo holds no bound search yet
        reduced = NEWTON_CHARTS[name].reduced
        chart = synthetic_chart(Signomial(reduced.arity, reduced.terms))
        before = chart_mod._search_template.cache_info()
        find_critical_points(chart)
        after = chart_mod._search_template.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == 1
        search = chart.reduced._kernels[chart_mod._search_template, False, 2, 1]
        assert chart.reduced._compiled(chart_mod._search_template, 2, 1) is search

    @pytest.mark.parametrize("exponent, message", [
        # the Hessian's coefficient 2e400 is beyond a double: its constants
        # are converted first, so its partial is named though the gradient's
        # is beyond a double too
        (2, r"partial \(0, 0\) of order 2 has coefficient 2e\+400,"),
        # the Hessian has no term; the gradient's coefficient 1e400 fails
        (1, r"partial \(0,\) of order 1 has coefficient 1e\+400,"),
    ])
    def test_failed_bind_memoizes_no_search(self, exponent, message):
        f = sig(1, (F(10 ** 400), {0: exponent}))
        for _ in range(2):
            with pytest.raises(OverflowError, match=message):
                f._compiled(chart_mod._search_template, 2, 1)
        assert f._kernels == {}
