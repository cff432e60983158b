"""Slice charts: restriction, eigensolver, Newton search, classification."""

from fractions import Fraction as F

import numpy as np
import pytest

import homscal.chart as chart_mod
from homscal.catalog import build, e6_space, so2n_flag_space, su_n_space
from homscal.chart import (
    Classification,
    SliceChart,
    classify,
    find_critical_points,
    hessian_spectrum,
    jacobi_eigh,
    kernel_basis,
    newton_critical,
    restrict,
)
from homscal.signomial import Signomial
from homscal.space import HomogeneousSpace


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
        assert chart.retained == (1,)

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


class TestSpectrumAndKernel:
    def test_su4_kernel_direction(self):
        chart = restrict(su_n_space(4))
        vals, vecs = hessian_spectrum(chart, (1.0, 1.0))
        near_zero = np.abs(vals) < 1e-9
        assert near_zero.sum() == 1
        vec = vecs[:, near_zero][:, 0]
        target = np.array([-1.0, 1.0]) / np.sqrt(2)
        assert abs(abs(vec @ target) - 1.0) < 1e-12

    def test_kernel_basis_normalization(self):
        chart = restrict(su_n_space(4))
        (vec,) = kernel_basis(chart, (1.0, 1.0))
        assert vec[0] > 0  # first nonzero coordinate positive
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_quaternionic_kernel_direction(self):
        entry = build("su2n_mod_spn", 3)
        (vec,) = kernel_basis(entry.chart, entry.critical_point, kernel_tol=1e-7)
        target = np.array([1.0, -0.25])
        target /= np.linalg.norm(target)
        assert abs(abs(vec @ target) - 1.0) < 1e-8

    def test_negative_definite_kernel_empty(self):
        chart = synthetic_chart(sig(1, (2, {0: 1}), (-1, {0: 2})))  # 2x - x^2
        assert kernel_basis(chart, (1.0,)) == []

    def test_kernel_basis_diagonalizes_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(chart_mod, "jacobi_eigh", lambda m: calls.append(m) or jacobi_eigh(m))
        (vec,) = kernel_basis(restrict(su_n_space(4)), (1.0, 1.0))
        assert len(calls) == 1

    def test_kernel_at_noncritical_point_rejected(self):
        chart = restrict(e6_space(), eliminated=0)
        with pytest.raises(ValueError, match="not critical"):
            kernel_basis(chart, (1.5,))


class TestClassify:
    def test_degenerate_unitary_family(self):
        chart = restrict(su_n_space(5))
        assert classify(chart, (1.0, 1.0)) is Classification.DEGENERATE

    def test_degenerate_one_variable_chart(self):
        chart = restrict(e6_space(), eliminated=0)
        assert classify(chart, (1.0,)) is Classification.DEGENERATE

    def test_noncritical_point(self):
        chart = restrict(e6_space(), eliminated=0)
        assert classify(chart, (1.4,)) is Classification.NOT_CRITICAL

    def test_local_max_candidate(self):
        chart = synthetic_chart(sig(1, (2, {0: 1}), (-1, {0: 2})))
        assert classify(chart, (1.0,)) is Classification.LOCAL_MAX_CANDIDATE

    def test_saddle_label_for_positive_eigenvalue(self):
        chart = synthetic_chart(sig(1, (1, {0: 1}), (1, {0: -1})))  # x + 1/x
        assert classify(chart, (1.0,)) is Classification.SADDLE

    def test_nonpositive_point_rejected(self):
        chart = restrict(e6_space(), eliminated=0)
        with pytest.raises(ValueError):
            classify(chart, (0.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_point_rejected(self, bad):
        chart = restrict(su_n_space(4))
        with pytest.raises(ValueError, match="finite"):
            classify(chart, (1.0, bad))


class TestNewton:
    def test_converges_to_unit_point(self):
        chart = restrict(su_n_space(3))
        res = newton_critical(chart, (0.9, 1.1))
        assert res is not None
        assert np.allclose(res.coords, (1.0, 1.0), atol=1e-10)
        assert res.grad_norm < 1e-12
        assert res.label is Classification.DEGENERATE

    def test_one_variable_chart(self):
        chart = restrict(e6_space(), eliminated=0)
        res = newton_critical(chart, (1.2,))
        assert res is not None
        assert res.coords[0] == pytest.approx(1.0, abs=1e-12)

    def test_start_independence_within_basin(self):
        chart = restrict(su_n_space(4))
        for start in ((0.92, 1.05), (1.08, 0.95), (1.1, 1.1)):
            res = newton_critical(chart, start)
            assert res is not None
            assert np.allclose(res.coords, (1.0, 1.0), atol=1e-9)

    def test_gradient_without_zero_reports_no_convergence(self):
        chart = synthetic_chart(sig(1, (1, {0: 1})))  # f = x, gradient 1
        assert newton_critical(chart, (1.0,)) is None

    def test_nonpositive_start_rejected(self):
        chart = restrict(e6_space(), eliminated=0)
        with pytest.raises(ValueError):
            newton_critical(chart, (-1.0,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_start_rejected(self, bad):
        chart = restrict(su_n_space(4))
        with pytest.raises(ValueError, match="finite"):
            newton_critical(chart, (bad, 1.0))


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

    def test_kernel_method_on_result(self):
        chart = restrict(su_n_space(4))
        (cp,) = [
            p for p in find_critical_points(chart)
            if np.allclose(p.coords, (1.0, 1.0), atol=1e-8)
        ]
        kernel = cp.kernel()
        assert len(kernel) == 1
