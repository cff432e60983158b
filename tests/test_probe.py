"""Directional derivatives, verdicts, the finite-difference oracle, witnesses."""

import copy
import itertools
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from homscal.catalog import build, default_entries, su2n_volume_normalizer
from homscal.chart import SliceChart
from homscal.probe import (
    CurveSpec,
    ProbeInconsistency,
    ProbeResult,
    Verdict,
    directional_derivatives,
    fd_check,
    improving_offset,
    inflection_verdict,
    probe_chart,
    suggest_fd_step,
)
from homscal.signomial import ExactEvaluationError, Signomial


def sig(arity, *pairs):
    return Signomial.from_terms(arity, [(F(c), e) for c, e in pairs])


def synthetic_chart(reduced):
    return SliceChart(label="synthetic", dims=(1,) * (reduced.arity + 1),
                      eliminated=reduced.arity, reduced=reduced)


def rel_gap(got, want):
    return abs(float(got) - float(want)) / max(abs(float(got)), abs(float(want)), 1e-300)


class TestCurveSpec:
    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            CurveSpec(base=(1, 1), direction=(0, 0))

    def test_nonpositive_base_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CurveSpec(base=(1, 0), direction=(1, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CurveSpec(base=(1,), direction=(1, 1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CurveSpec(base=(1.0, bad), direction=(1, 1))
        with pytest.raises(ValueError, match="finite"):
            CurveSpec(base=(1, 1), direction=(bad, 1.0))


class TestExactProbes:
    def test_two_summand_entry(self):
        entry = build("e6_su2_so6")
        res = directional_derivatives(entry.chart, entry.curve())
        assert res.mode == "exact"
        assert (res.s1, res.s2, res.s3) == (0, 0, 180)

    def test_unitary_family_closed_form(self):
        for n in range(3, 11):
            entry = build("su_n", n)
            res = directional_derivatives(entry.chart, entry.curve())
            assert res.mode == "exact"
            assert res.s1 == 0 and res.s2 == 0
            assert res.s3 == F(n * n * (n - 1), (n - 2) ** 2)

    def test_unitary_family_at_five(self):
        entry = build("su_n", 5)
        res = directional_derivatives(entry.chart, entry.curve())
        assert res.s3 == F(100, 9)

    def test_flag_family_closed_form(self):
        for n in range(4, 9):
            entry = build("so2n_flag", n)
            res = directional_derivatives(entry.chart, entry.curve())
            assert res.mode == "exact"
            assert res.s1 == 0 and res.s2 == 0
            assert res.s3 == F(2 * n * n * (n - 1), (n - 2) ** 2)

    def test_exact_mode_rejects_irrational_base(self):
        # the n = 5 flag chart has exponents 2/3 and -8/3, so (3/2)^(2/3) appears
        entry = build("so2n_flag", 5)
        curve = CurveSpec(base=(F(3, 2),), direction=(F(1),))
        with pytest.raises(ExactEvaluationError):
            directional_derivatives(entry.chart, curve, mode="exact")
        res = directional_derivatives(entry.chart, curve, mode="auto")
        assert res.mode == "float"

    def test_exact_mode_rejects_float_typed_curve(self):
        entry = build("su_n", 3)
        curve = CurveSpec(base=(1.0, 1.0), direction=(-2.0, 1.0))
        with pytest.raises(ExactEvaluationError, match="Fraction"):
            directional_derivatives(entry.chart, curve, mode="exact")
        assert directional_derivatives(entry.chart, curve, mode="auto").mode == "float"


class TestFloatProbes:
    def test_quaternionic_family(self):
        for n in range(3, 7):
            entry = build("su2n_mod_spn", n)
            res = probe_chart(entry.chart, entry.curve())
            assert res.mode == "float"
            rel1, rel2, _ = res.relative()
            assert rel1 < 1e-8
            assert rel2 < 1e-8
            assert rel_gap(res.s3, entry.expected_s3) < 1e-6
            assert res.verdict is Verdict.NOT_LOCAL_MAX

    def test_normalizer_value_at_three(self):
        assert su2n_volume_normalizer(3) == pytest.approx((1280 / 3) ** (1 / 14), rel=1e-15)


class TestDirectionScaling:
    def test_exact_scaling_in_direction(self):
        entry = build("su_n", 3)
        base = entry.curve()
        res = directional_derivatives(entry.chart, base)
        c = F(3, 2)
        scaled = CurveSpec(base=base.base, direction=tuple(c * v for v in base.direction))
        res_c = directional_derivatives(entry.chart, scaled)
        assert res_c.s1 == c * res.s1
        assert res_c.s2 == c * c * res.s2
        assert res_c.s3 == c ** 3 * res.s3

    def test_verdict_invariant_under_scaling_and_flip(self):
        entry = build("su_n", 4)
        base = entry.curve()
        verdicts = set()
        for c in (F(1), F(2), F(-1)):
            curve = CurveSpec(base=base.base, direction=tuple(c * v for v in base.direction))
            res = probe_chart(entry.chart, curve)
            verdicts.add(res.verdict)
            if c == F(-1):
                assert res.s3 == -build("su_n", 4).expected_s3
        assert verdicts == {Verdict.NOT_LOCAL_MAX}


class TestVerdictRules:
    @staticmethod
    def exact_result(s1, s2, s3):
        return ProbeResult(s1=s1, s2=s2, s3=s3, mode="exact",
                           scales=(1.0, 1.0, 1.0), third_partial_max=1.0)

    def test_inflection(self):
        assert inflection_verdict(self.exact_result(F(0), F(0), F(180))) is Verdict.NOT_LOCAL_MAX

    def test_strict_descent(self):
        assert inflection_verdict(self.exact_result(F(0), F(-3), F(7))) is Verdict.STRICT_DESCENT

    def test_flat_is_inconclusive(self):
        assert inflection_verdict(self.exact_result(F(0), F(0), F(0))) is Verdict.INCONCLUSIVE

    def test_float_noise_does_not_fake_an_inflection(self):
        res = ProbeResult(s1=1e-20, s2=-1e-20, s3=1e-9, mode="float",
                          scales=(1.0, 1.0, 1.0), third_partial_max=50.0)
        assert inflection_verdict(res) is Verdict.INCONCLUSIVE


class TestPositivityGuards:
    def test_curve_leaving_orthant_rejected(self):
        entry = build("e6_su2_so6")
        curve = CurveSpec(base=(F(1),), direction=(F(-200),))
        with pytest.raises(ValueError, match="positive orthant"):
            directional_derivatives(entry.chart, curve)
        with pytest.raises(ValueError, match="positive orthant"):
            fd_check(entry.chart, CurveSpec(base=(F(1),), direction=(F(-400),)), h=1e-3)


class TestFiniteDifferenceOracle:
    def test_catalog_curves_agree(self):
        from homscal.catalog import default_entries
        from homscal.probe import fd_check_auto

        for entry in default_entries():
            curve = entry.curve()
            f1, f2, f3 = fd_check_auto(entry.chart, curve)
            res = directional_derivatives(entry.chart, curve)
            s1_scale, s2_scale, _ = res.scales
            assert abs(f1 - float(res.s1)) <= 1e-6 * max(abs(float(res.s1)), s1_scale)
            assert abs(f2 - float(res.s2)) <= 1e-6 * max(abs(float(res.s2)), s2_scale)
            assert rel_gap(f3, res.s3) <= 1e-4

    def test_flag_family_default_step(self):
        entry = build("so2n_flag", 4)
        _, _, f3 = fd_check(entry.chart, entry.curve())  # default h = 1e-3
        assert rel_gap(f3, 24) < 1e-4

    def test_constant_chart(self):
        chart = synthetic_chart(Signomial.constant(1, F(7)))
        s1, s2, s3 = fd_check(chart, CurveSpec(base=(F(1),), direction=(F(1),)))
        assert (s1, s2, s3) == (0.0, 0.0, 0.0)

    def test_order_parameter(self):
        entry = build("e6_su2_so6")
        assert len(fd_check(entry.chart, entry.curve(), order=2)) == 2

    @pytest.mark.parametrize("name", ["e6_su2_so6", "su_n", "su2n_mod_spn"])
    def test_one_evaluation_per_abscissa(self, monkeypatch, name):
        entry = build(name) if name == "e6_su2_so6" else build(name, 4)
        curve, f, h = entry.curve(), entry.chart.reduced, 1e-3

        def at(t):
            return f.eval_float(tuple(float(b) + t * float(c)
                                      for b, c in zip(curve.base, curve.direction)))

        # the three central-difference formulas, each evaluating its own abscissae
        reference = (
            (at(h) - at(-h)) / (2 * h),
            (at(h) - 2 * at(0.0) + at(-h)) / (h * h),
            (at(2 * h) - 2 * at(h) + 2 * at(-h) - at(-2 * h)) / (2 * h ** 3),
        )
        evaluated = []
        eval_float = Signomial.eval_float

        def counted(self, point):
            evaluated.append(tuple(point))
            return eval_float(self, point)

        monkeypatch.setattr(Signomial, "eval_float", counted)
        got = fd_check(entry.chart, curve, h=h)
        assert len(evaluated) == len(set(evaluated)) == 5
        assert [v.hex() for v in got] == [v.hex() for v in reference]


class TestWitness:
    def test_positive_third_derivative_improves_forward(self):
        entry = build("e6_su2_so6")
        witness = improving_offset(entry.chart, entry.curve(), s3=180)
        assert witness[0] > 1.0
        assert entry.chart.reduced.eval_float(witness) > entry.chart.reduced.eval_float((1.0,))

    def test_negative_third_derivative_improves_backward(self):
        entry = build("su2n_mod_spn", 3)
        witness = improving_offset(entry.chart, entry.curve(), s3=entry.expected_s3)
        assert witness[0] < float(entry.critical_point[0])
        base = [float(x) for x in entry.critical_point]
        assert entry.chart.reduced.eval_float(witness) > entry.chart.reduced.eval_float(base)

    def test_zero_s3_rejected(self):
        entry = build("e6_su2_so6")
        with pytest.raises(ValueError, match="nonzero"):
            improving_offset(entry.chart, entry.curve(), s3=0)

    def test_descent_curve_never_improves(self):
        # strict local maximum: every offset decreases the value
        chart = synthetic_chart(sig(1, (2, {0: 1}), (-1, {0: 2})))
        curve = CurveSpec(base=(F(1),), direction=(F(1),))
        with pytest.raises(ProbeInconsistency):
            improving_offset(chart, curve, s3=1.0)


class TestLattice:
    def test_memoizes_mixed_partials(self):
        f = build("su_n", 3).chart.reduced
        assert f.derivative((0, 1)) is f.derivative((1, 0))
        assert f.derivative((0, 1, 0)) is f.derivative((0, 0, 1))

    def test_step_suggestion_bounds(self):
        entry = build("su_n", 10)
        h = suggest_fd_step(entry.chart, entry.curve())
        assert 1e-5 <= h <= 1e-3


CATALOG = {f"{e.family}-{e.n}": e for e in default_entries()}


class TestThirdPartials:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_each_third_partial_is_evaluated_once(self, monkeypatch, name):
        entry = CATALOG[name]
        chart = copy.deepcopy(entry.chart)  # a copy carries no float memo
        f = chart.reduced
        third = {id(f.derivative(alpha))
                 for alpha in itertools.combinations_with_replacement(range(f.arity), 3)}
        calls, built = Counter(), Counter()
        partials_float, float_form = Signomial.partials_float, Signomial._float_form

        def counted(self, point, order, absolute=False):
            calls[id(self), order, absolute] += 1
            return partials_float(self, point, order, absolute)

        def counted_form(self):
            built[id(self)] += 1
            return float_form(self)

        monkeypatch.setattr(Signomial, "partials_float", counted)
        monkeypatch.setattr(Signomial, "_float_form", counted_form)
        directional_derivatives(chart, entry.curve(), mode="float")
        assert calls == {(id(f), order, absolute): 1
                         for order in (1, 2, 3) for absolute in (False, True)}
        assert {k: built[k] for k in third} == dict.fromkeys(third, 1)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_float_third_partial_max_is_the_largest_third_partial(self, name):
        entry = CATALOG[name]
        f = entry.chart.reduced
        point = [float(x) for x in entry.critical_point]
        want = 0.0
        for alpha in itertools.combinations_with_replacement(range(f.arity), 3):
            want = max(want, abs(f.derivative(alpha).eval_float(point)))
        res = directional_derivatives(entry.chart, entry.curve(), mode="float")
        assert res.third_partial_max.hex() == want.hex()
