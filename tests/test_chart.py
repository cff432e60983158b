"""Slice charts: restriction, eigensolver, Newton search, classification."""

import itertools
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homscal.chart as chart_mod
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
from homscal.signomial import Monomial, Signomial
from homscal.space import HomogeneousSpace, space_from_dict


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


def _reference_restricted_terms(space, e):
    """The reduced term map of restrict(space, e), in order, by two steps.

    First x_e := prod over k != e of x_k^(-d_k/d_e) is substituted in scal,
    merging equal monomials into the first one's place and dropping zero
    coefficients; then x_e, now unused, is dropped and the indices above it
    shift down by one.  Built with the public constructors only.
    """
    scal = space.scalar_curvature()
    repl = {k: F(-d, space.dims[e]) for k, d in enumerate(space.dims) if k != e}
    substituted = {}
    for m, c in scal.terms.items():
        p = m.exponent(e)
        exps = {i: x for i, x in m.exps if i != e}
        for k, a in repl.items():
            exps[k] = exps.get(k, 0) + p * a
        key = Monomial(exps)
        substituted[key] = substituted.get(key, 0) + c
    substituted = Signomial(space.r, substituted)
    dropped = {
        Monomial({(i if i < e else i - 1): x for i, x in m.exps}): c
        for m, c in substituted.terms.items()
    }
    return list(Signomial(space.r - 1, dropped).terms.items())


@st.composite
def spaces(draw):
    """Valid spaces with 2 to 5 summands, small dims, rational b and
    triples, zero values among them."""
    r = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 6), min_size=r, max_size=r))
    rationals = st.fractions(min_value=0, max_value=6, max_denominator=4)
    b = draw(st.lists(rationals.filter(bool), min_size=r, max_size=r))
    keys = st.lists(st.integers(0, r - 1), min_size=3, max_size=3).map(lambda t: tuple(sorted(t)))
    triples = draw(st.dictionaries(keys, rationals, max_size=6))
    return HomogeneousSpace(name="drawn", dims=dims, b=b, triples=triples)


class TestRestrictedTermOrder:
    """The float kernels sum in term order, so restrict must give the term
    map of the two-step reference item for item, in insertion order."""

    @settings(max_examples=100, deadline=None)
    @given(spaces())
    def test_drawn_spaces_match_the_two_step_reference(self, space):
        for e in range(space.r):
            assert list(restrict(space, e).reduced.terms.items()) == _reference_restricted_terms(space, e)

    @pytest.mark.parametrize(
        "space, e",
        [(entry.space, e) for entry in default_entries() if entry.space is not None
         for e in range(entry.space.r)],
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
        vals, vecs = jacobi_eigh(np.zeros((3, 3)))
        assert np.all(vals == 0)
        assert np.allclose(vecs @ vecs.T, np.eye(3))

    def test_diagonal_matrix(self):
        vals, _ = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(vals, [-1.0, 2.0, 3.0])

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for size in (2, 3, 5):
            a = rng.normal(size=(size, size))
            a = (a + a.T) / 2
            vals, vecs = jacobi_eigh(a)
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

    def test_empty_matrix_has_empty_eigenpairs(self):
        vals, vecs = jacobi_eigh(np.zeros((0, 0)))
        assert vals.shape == (0,) and vecs.shape == (0, 0)


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_start_rejected(self, bad):
        chart = restrict(su_n_space(4))
        with pytest.raises(ValueError, match="finite"):
            newton_critical(chart, (bad, 1.0))


def _reference_direction(h, g):
    # the ndarray Newton direction: LAPACK solve, least squares when singular
    hess, rhs = np.array([[h]]), -np.array([g])
    try:
        delta = np.linalg.solve(hess, rhs)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        delta = np.linalg.lstsq(hess, rhs, rcond=None)[0]
    return delta.tolist()


def _outcome(fn, *args):
    try:
        return [x.hex() for x in fn(*args)]
    except np.linalg.LinAlgError:  # lstsq refuses a non-finite matrix
        return "LinAlgError"


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
    def test_one_by_one_solve_has_the_bits_of_lapack(self, h, g):
        with np.errstate(all="ignore"):
            assert _outcome(chart_mod._newton_direction, [[h]], [g]) == _outcome(
                _reference_direction, h, g
            )

    @settings(max_examples=500, deadline=None)
    @given(g=st.one_of(finite_float, st.sampled_from([math.inf, -math.inf])))
    def test_one_vector_norm_has_the_bits_of_numpy(self, g):
        with np.errstate(all="ignore"):
            want = float(np.linalg.norm(np.array([g])))
        assert chart_mod.vector_norm([g]).hex() == want.hex()


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
        assert point.shape == (0,)
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
    grad = np.array(chart.reduced.partials_float(u, 1))
    hess = np.array(chart.reduced.hessian_float(u))
    try:
        delta = np.linalg.solve(hess, -grad)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        delta = np.linalg.lstsq(hess, -grad, rcond=None)[0]
    if not np.all(np.isfinite(delta)) or not delta.any():
        return None
    gnorm = float(np.linalg.norm(grad))
    damp = 1.0
    for _ in range(60):
        trial = u + damp * delta
        if (trial > 0).all():
            tnorm = float(np.linalg.norm(chart.reduced.partials_float(trial, 1)))
            if math.isfinite(tnorm) and tnorm < gnorm:
                return trial
        damp *= 0.5
    return None


def _reference_newton_converge(chart, u, tol, max_iter):
    converged = False
    for _ in range(max_iter):
        grad = np.array(chart.reduced.partials_float(u, 1))
        if not np.all(np.isfinite(grad)):
            return None
        if float(np.linalg.norm(grad)) < tol:
            converged = True
            break
        nxt = _reference_newton_step(chart, u)
        if nxt is None:
            return None
        u = nxt
    if not converged:
        return None
    best_u = u
    best_norm = float(np.linalg.norm(chart.reduced.partials_float(u, 1)))
    for _ in range(12):
        nxt = _reference_newton_step(chart, best_u)
        if nxt is None:
            break
        norm = float(np.linalg.norm(chart.reduced.partials_float(nxt, 1)))
        if norm < best_norm:
            best_u, best_norm = nxt, norm
        else:
            break
    return best_u


def _reference_newton_critical(chart, start):
    u = np.array([float(x) for x in start], dtype=float)
    try:
        with np.errstate(over="ignore"):
            best_u = _reference_newton_converge(chart, u, 1e-12, 100)
    except OverflowError:
        return None
    if best_u is None:
        return None
    snapped = chart_mod.exact_snap(chart, best_u)
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
}
GRID = np.exp(np.linspace(math.log(0.25), math.log(4.0), 5))


def _reference_find_critical_points(chart):
    found = []
    for start in itertools.product(GRID, repeat=chart.arity):
        res = _reference_newton_critical(chart, start)
        if res is None or res.label is Classification.NOT_CRITICAL:
            continue
        if any(np.linalg.norm(np.array(res.coords) - np.array(f.coords)) < 1e-8
               for f in found):
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
