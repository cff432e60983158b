"""Directional derivatives, verdicts, the finite-difference oracle, witnesses."""

import copy
import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


CATALOG = {f"{e.family}-{e.n}": e for e in default_entries()}


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

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_float_verdict_invariant_under_decades_of_scaling(self, name):
        # the catalog direction at max-norm 1e-2, times 10^k for k = -3..3, so
        # the largest still stays positive for |t| <= 1e-2
        entry = CATALOG[name]
        curve = entry.curve()
        vmax = max(abs(float(v)) for v in curve.direction)
        verdicts = set()
        for k in range(-3, 4):
            direction = tuple(10.0 ** k * float(v) / (100 * vmax) for v in curve.direction)
            res = probe_chart(entry.chart, CurveSpec(base=curve.base, direction=direction),
                              mode="float")
            verdicts.add(res.verdict)
        assert verdicts == {Verdict.NOT_LOCAL_MAX}

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
        return ProbeResult(s1=s1, s2=s2, s3=s3, mode="exact", scales=(1.0, 1.0, 1.0))

    def test_inflection(self):
        assert inflection_verdict(self.exact_result(F(0), F(0), F(180))) is Verdict.NOT_LOCAL_MAX

    def test_strict_descent(self):
        assert inflection_verdict(self.exact_result(F(0), F(-3), F(7))) is Verdict.STRICT_DESCENT

    def test_flat_is_inconclusive(self):
        assert inflection_verdict(self.exact_result(F(0), F(0), F(0))) is Verdict.INCONCLUSIVE

    def test_float_noise_does_not_fake_an_inflection(self):
        # S3 is 2e-11 of its own cancellation scale: roundoff, not a signal
        res = ProbeResult(s1=1e-20, s2=-1e-20, s3=1e-9, mode="float",
                          scales=(1.0, 1.0, 50.0))
        assert inflection_verdict(res) is Verdict.INCONCLUSIVE

    def test_each_float_s_is_judged_on_its_own_scale(self):
        # S1 and S2 are roundoff of their own scales and S3 is a signal of its own
        res = ProbeResult(s1=1e-12, s2=1e-20, s3=1e-5, mode="float",
                          scales=(1e3, 1e-6, 1e-4))
        assert inflection_verdict(res) is Verdict.NOT_LOCAL_MAX
        # a large S3 does not excuse an S1 that is large on its own scale
        res = ProbeResult(s1=1e-6, s2=0.0, s3=1e3, mode="float",
                          scales=(1e-3, 1.0, 1e3))
        assert inflection_verdict(res) is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("s", [(1e-14, -1e-16, 3.0), (1e-14, -2.0, 3.0), (0.0, 0.0, 1e-9)])
    def test_float_verdict_is_invariant_under_scaling(self, s):
        # S_m and its scale both grow like c^m when the direction grows by c
        scales = (1.0, 4.0, 9.0)
        verdicts = {
            inflection_verdict(ProbeResult(
                *(v * c ** m for m, v in enumerate(s, 1)), mode="float",
                scales=tuple(a * c ** m for m, a in enumerate(scales, 1))))
            for c in (2.0 ** k for k in range(-20, 21, 4))
        }
        assert len(verdicts) == 1


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

    def test_step_suggestion_runs_no_signed_fifth_order_kernel(self, monkeypatch):
        entry = CATALOG["su_n-5"]
        calls = []
        partials_float = Signomial.partials_float

        def counted(self, point, order, absolute=False):
            calls.append((order, absolute))
            return partials_float(self, point, order, absolute)

        monkeypatch.setattr(Signomial, "partials_float", counted)
        suggest_fd_step(entry.chart, entry.curve())
        assert calls == [(0, True), (5, True)]


class TestThirdPartials:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_each_third_partial_is_evaluated_once(self, monkeypatch, name):
        entry = CATALOG[name]
        chart = copy.deepcopy(entry.chart)  # a copy carries no float memo
        f = chart.reduced
        third = {id(f.derivative(alpha))
                 for alpha in itertools.combinations_with_replacement(range(f.arity), 3)}
        calls, built = Counter(), Counter()
        partials_float, float_constants = Signomial.partials_float, Signomial._float_constants

        def counted(self, point, order, absolute=False):
            calls[id(self), order, absolute] += 1
            return partials_float(self, point, order, absolute)

        def counted_constants(self, alpha, absolute):
            built[id(self), absolute] += 1
            return float_constants(self, alpha, absolute)

        monkeypatch.setattr(Signomial, "partials_float", counted)
        monkeypatch.setattr(Signomial, "_float_constants", counted_constants)
        directional_derivatives(chart, entry.curve(), mode="float")
        assert calls == {(id(f), order, absolute): 1
                         for order in (1, 2, 3) for absolute in (False, True)}
        # one kernel per (order, absolute), so a third partial's constants are
        # converted once for its values and once for its |term| scale
        assert {k: built[k] for k in built if k[0] in third} == {
            (k, absolute): 1 for k in third for absolute in (False, True)
        }


# -- the contraction against the two-branch loop it replaced -----------------------

def _reference_multinomial(counts):
    total = sum(counts.values())
    out = math.factorial(total)
    for c in counts.values():
        out //= math.factorial(c)
    return out


def _reference_contract(f, order, point, direction, exact):
    """The signed contraction (exact or float), its absolute-value counterpart
    and the largest |partial|, in one interleaved loop."""
    alphas = list(itertools.combinations_with_replacement(range(len(point)), order))
    if exact:
        num = F
        values = [f.derivative(alpha).eval_exact(point) for alpha in alphas]
    else:
        num = float
        values = f.partials_float(point, order)
    abs_values = f.partials_float(point, order, absolute=True)
    total = num(0)
    total_abs = 0.0
    peak = num(0)
    for alpha, value, abs_value in zip(alphas, values, abs_values):
        counts = {}
        for i in alpha:
            counts[i] = counts.get(i, 0) + 1
        mult = _reference_multinomial(counts)
        peak = max(peak, abs(value))
        dirprod = num(1)
        for i, c in counts.items():
            dirprod *= num(direction[i]) ** c
        total += mult * value * dirprod
        absdir = 1.0
        for i, c in counts.items():
            absdir *= abs(float(direction[i])) ** c
        total_abs += mult * abs_value * absdir
    return total, total_abs, float(peak)


def _reference_probe(chart, curve, mode):
    """(mode, (S1, S2, S3), scales) as the two-branch loop gave them."""
    rational = all(isinstance(v, (int, F)) for v in curve.base + curve.direction)
    exact = mode == "exact" or (mode == "auto" and rational)
    contract = lambda exact: [
        _reference_contract(chart.reduced, order, curve.base, curve.direction, exact)
        for order in (1, 2, 3)
    ]
    try:
        parts = contract(exact)
    except ExactEvaluationError:
        exact = False
        parts = contract(exact)
    return "exact" if exact else "float", tuple(p[0] for p in parts), tuple(p[1] for p in parts)


def _reference_fd_step(chart, curve):
    f_abs = chart.reduced.partials_float(curve.base, 0, absolute=True)[0]
    _, s5_abs, _ = _reference_contract(chart.reduced, 5, curve.base, curve.direction, False)
    vmax = max(abs(float(c)) for c in curve.direction)
    if s5_abs == 0.0 or f_abs == 0.0:
        return 1e-3 / vmax
    h = 4.0 * (6.0 * 2.2e-16 * f_abs / s5_abs) ** 0.2
    return min(1e-3 / vmax, max(1e-4 / vmax, h))


probe_coeffs = st.fractions(min_value=-8, max_value=8).filter(lambda c: c != 0)
# integers keep the exact path open at rational points; thirds close it
probe_exponents = st.one_of(st.integers(-4, 4).map(F), st.sampled_from([F(1, 3), F(-5, 3)]))


@st.composite
def probe_cases(draw):
    arity = draw(st.integers(1, 3))
    terms = draw(st.lists(
        st.tuples(probe_coeffs, st.dictionaries(st.integers(0, arity - 1), probe_exponents,
                                                max_size=arity)),
        max_size=5))
    rational = draw(st.booleans())
    # base >= 1/4 and |direction| <= 4 keep the line positive for |t| <= 1e-2
    if rational:
        base = st.fractions(min_value=F(1, 4), max_value=4)
        component = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    else:
        base = st.floats(min_value=0.25, max_value=4.0)
        component = st.floats(min_value=-4.0, max_value=4.0)
    direction = draw(st.lists(component, min_size=arity, max_size=arity)
                     .filter(lambda v: any(c != 0 for c in v)))
    curve = CurveSpec(base=tuple(draw(st.lists(base, min_size=arity, max_size=arity))),
                      direction=tuple(direction))
    return synthetic_chart(Signomial.from_terms(arity, terms)), curve


@settings(deadline=None, max_examples=150)
@given(probe_cases(), st.sampled_from(["auto", "float"]))
def test_contraction_matches_the_two_branch_reference(case, mode):
    chart, curve = case
    res = directional_derivatives(chart, curve, mode=mode)
    want_mode, want_s, want_scales = _reference_probe(chart, curve, mode)
    got_s = (res.s1, res.s2, res.s3)
    assert res.mode == want_mode
    if want_mode == "exact":
        assert all(isinstance(v, F) for v in got_s)
        assert got_s == want_s
    else:
        assert [v.hex() for v in got_s] == [v.hex() for v in want_s]
    assert [a.hex() for a in res.scales] == [a.hex() for a in want_scales]
    assert suggest_fd_step(chart, curve).hex() == _reference_fd_step(chart, curve).hex()


# sha256 of the .hex() of float-mode S1, S2, S3, the three scales and
# suggest_fd_step along every catalog curve, in default_entries() order
PROBE_BITS_SHA256 = "b867d9c1fa6d458a7001424ba65fe9bba2e599338519f5cf0a394356e56ae796"


def test_probe_bits_are_pinned():
    digest = hashlib.sha256()
    for entry in default_entries():
        curve = entry.curve()
        res = directional_derivatives(entry.chart, curve, mode="float")
        bits = [res.s1, res.s2, res.s3, *res.scales, suggest_fd_step(entry.chart, curve)]
        digest.update((" ".join(x.hex() for x in bits) + "\n").encode())
    assert digest.hexdigest() == PROBE_BITS_SHA256
