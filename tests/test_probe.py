"""Directional derivatives, verdicts, the finite-difference oracle, witnesses."""

import copy
import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import homscal.signomial as signomial
from homscal.catalog import (build, default_entries, load_custom, so2n_flag_space,
                             su2n_volume_normalizer, su_n_space)
from homscal.chart import CriticalPoint, SliceChart, restrict
from homscal.probe import (
    CurveSpec,
    ProbeInconsistency,
    ProbeResult,
    Verdict,
    _contract,
    _reach,
    directional_derivatives,
    fd_check,
    fd_check_auto,
    improving_offset,
    inflection_verdict,
    probe_chart,
    suggest_fd_step,
)
from homscal.signomial import ExactEvaluationError, Signomial
from homscal.space import space_to_dict
from test_chart import _admissible_two_summand_charts
from test_signomial import exact_term_sum, power_bases
from test_space import spaces


def sig(arity, *pairs):
    return Signomial.from_terms(arity, [(F(c), e) for c, e in pairs])


def synthetic_chart(reduced):
    return SliceChart(label="synthetic", dims=(1,) * (reduced.arity + 1),
                      eliminated=reduced.arity, reduced=reduced)


CATALOG = {f"{e.family}-{e.n}": e for e in default_entries()}


def rel_gap(got, want):
    return abs(float(got) - float(want)) / max(abs(float(got)), abs(float(want)), 1e-300)


# README: the fd oracle agrees with the contractions to these relative gaps
FD_TOL = (1e-6, 1e-6, 1e-4)


def fd_gaps(fd, res):
    s = (res.s1, res.s2, res.s3)
    return [abs(f - float(v)) / max(abs(float(v)), a) for f, v, a in zip(fd, s, res.scales)]


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

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="empty curve"):
            CurveSpec((), ())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CurveSpec(base=(1.0, bad), direction=(1, 1))
        with pytest.raises(ValueError, match="finite"):
            CurveSpec(base=(1, 1), direction=(bad, 1.0))


class TestProbeArguments:
    @pytest.mark.parametrize("call, match", [
        (lambda chart, curve: directional_derivatives(chart, CurveSpec((1, 1), (1, 0))),
         "curve lives in 2 variables, chart in 1"),
        (lambda chart, curve: directional_derivatives(chart, curve, mode="bogus"),
         "unknown mode 'bogus'"),
        (lambda chart, curve: fd_check(chart, curve, order=0), "order must be 1, 2 or 3"),
        (lambda chart, curve: fd_check(chart, curve, order=4), "order must be 1, 2 or 3"),
        (lambda chart, curve: fd_check(chart, curve, order=2.5),
         "^order: expected an integer, got 2.5$"),
        (lambda chart, curve: fd_check(chart, curve, order=True),
         "^order: expected an integer, got True$"),
        (lambda chart, curve: fd_check(chart, curve, h=0), "^h must be a finite, nonzero step, got 0$"),
        (lambda chart, curve: fd_check(chart, curve, h=math.nan),
         "^h must be a finite, nonzero step, got nan$"),
        (lambda chart, curve: fd_check(chart, curve, h=-math.inf),
         "^h must be a finite, nonzero step, got -inf$"),
        (lambda chart, curve: chart.reduced.eval_exact((math.inf,)),
         "^coordinate 0 is not a finite number: inf$"),
        (lambda chart, curve: sig(2, (1, {0: 1})).eval_exact((1, math.nan)),
         "^coordinate 1 is not a finite number: nan$"),
        (lambda chart, curve: chart.reduced.line_exact((1,), (1, 0)),
         "^direction has 2 coordinates, arity is 1$"),
        (lambda chart, curve: chart.reduced.line_exact((1,), (-math.inf,)),
         r"^direction is not finite: \(-inf,\)$"),
    ], ids=["wrong-arity", "bogus-mode", "fd-order-0", "fd-order-4", "fd-order-2.5",
            "fd-order-true", "fd-h-0", "fd-h-nan", "fd-h-inf", "exact-inf-coordinate",
            "exact-nan-coordinate", "line-direction-length", "line-direction-inf"])
    def test_bad_argument_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call(build("e6_su2_so6").chart, CurveSpec(base=(F(1),), direction=(F(1),)))


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
        # the catalog direction times 10^k, k = -3..6: the verdict, a witness
        # within max-norm 2e-2 of the base and the fd oracle at every length
        entry = CATALOG[name]
        base = entry.curve()
        base_floats = [float(b) for b in base.base]
        slack = 2 * math.ulp(max(base_floats))
        verdicts = set()
        for k in range(-3, 7):
            direction = tuple(10.0 ** k * float(v) for v in base.direction)
            curve = CurveSpec(base=base.base, direction=direction)
            res = probe_chart(entry.chart, curve, mode="float")
            verdicts.add(res.verdict)
            witness = improving_offset(entry.chart, curve, res.s3)
            # up to the rounding of base + t * v
            assert max(abs(w - b) for w, b in zip(witness, base_floats)) <= 2e-2 + slack
            gaps = fd_gaps(fd_check_auto(entry.chart, curve), res)
            assert all(g <= t for g, t in zip(gaps, FD_TOL)), (k, gaps)
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
        # at h = 1e-3 the abscissa -2h is 1 - 1.2: the evaluator refuses it
        entry = build("e6_su2_so6")
        with pytest.raises(ValueError, match="is not positive"):
            fd_check(entry.chart, CurveSpec(base=(F(1),), direction=(F(-600),)), h=1e-3)

    def test_fd_check_evaluates_only_out_to_two_steps(self):
        # +-2h stay positive (1 -+ 0.8) although +-3h would not (1 - 1.2)
        entry = build("e6_su2_so6")
        got = fd_check(entry.chart, CurveSpec(base=(F(1),), direction=(F(-400),)), h=1e-3)
        assert all(math.isfinite(v) for v in got)


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
        chart = synthetic_chart(Signomial.from_terms(1, [(F(7), {})]))
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

    @pytest.mark.parametrize("k", [300, 1000])
    def test_halvings_match_the_fixed_start_reference(self, k):
        # (x - 1)^3 - k (x - 1)^4 improves on f(1) = 0 only for 0 < x - 1 < 1/k
        chart = synthetic_chart(sig(1, (-1 - k, {}), (3 + 4 * k, {0: 1}), (-3 - 6 * k, {0: 2}),
                                    (1 + 4 * k, {0: 3}), (-k, {0: 4})))
        curve = CurveSpec(base=(F(1),), direction=(F(1),))
        witness = improving_offset(chart, curve, s3=6)
        assert 0 < witness[0] - 1 < 1 / k < 1e-2
        assert witness[0].hex() == _reference_improving_offset(chart, curve, 6)[0].hex()

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
        calls, built = Counter(), Counter()
        partials_float, order_constants = Signomial.partials_float, Signomial._order_constants

        def counted(self, point, order, absolute=False):
            calls[id(self), order, absolute] += 1
            return partials_float(self, point, order, absolute)

        def counted_constants(self, order):
            if order not in self._floats:  # a conversion, not a memo hit
                built[id(self), order] += 1
            return order_constants(self, order)

        monkeypatch.setattr(Signomial, "partials_float", counted)
        monkeypatch.setattr(Signomial, "_order_constants", counted_constants)
        directional_derivatives(chart, entry.curve(), mode="float")
        assert calls == {(id(f), order, absolute): 1
                         for order in (1, 2, 3) for absolute in (False, True)}
        # one kernel per (order, absolute), but each order's constants are
        # converted once: its values and its |term| scale share them
        assert built == {(id(f), order): 1 for order in (1, 2, 3)}

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_labels_and_exact_probes_build_no_partial(self, name):
        entry = CATALOG[name]
        chart = copy.deepcopy(entry.chart)  # a copy carries no memo
        CriticalPoint.at(chart, entry.critical_point)
        res = probe_chart(chart, entry.curve(), mode="auto")
        assert res.mode == ("float" if entry.family == "su2n_mod_spn" else "exact")
        assert chart.reduced._partials == {}

    def test_chart_building_makes_no_key_through_monomial(self, monkeypatch, tmp_path):
        # scal and its charts are built with canonical keys: none is made again
        monomial, made = signomial._monomial, []

        def counted(exps, arity):
            made.append(exps)
            return monomial(exps, arity)

        monkeypatch.setattr(signomial, "_monomial", counted)
        for name, entry in CATALOG.items():
            assert build(entry.family, entry.n).chart == entry.chart, name
        path = tmp_path / "space.json"
        for space, eliminate in ((su_n_space(5), 0), (so2n_flag_space(6), 1)):
            path.write_text(json.dumps({**space_to_dict(space), "eliminate": eliminate}))
            assert load_custom(path).chart == restrict(space, eliminate)
        assert made == []


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
        values = [exact_term_sum(f.derivative(alpha), point) for alpha in alphas]
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


def _reference_improving_offset(chart, curve, s3):
    """The witness search with a fixed start, 21 tries and a positivity skip."""
    sign = 1.0 if float(s3) > 0 else -1.0
    base_value = chart.reduced.eval_float([float(x) for x in curve.base])
    step = 1e-2
    for _ in range(21):
        witness = curve.at(sign * step)
        if all(x > 0 for x in witness):
            if chart.reduced.eval_float(witness) > base_value:
                return witness
        step *= 0.5
    raise ProbeInconsistency(f"no improving offset within 0.01 of the base point; S3 = {s3}")


probe_coeffs = st.fractions(min_value=-8, max_value=8).filter(lambda c: c != 0)
# integers keep the exact path open at rational points; thirds close it
probe_exponents = st.one_of(st.integers(-4, 4).map(F), st.sampled_from([F(1, 3), F(-5, 3)]))


def draw_chart(draw, arity, min_terms=0):
    terms = draw(st.lists(
        st.tuples(probe_coeffs, st.dictionaries(st.integers(0, arity - 1), probe_exponents,
                                                max_size=arity)),
        min_size=min_terms, max_size=5))
    return synthetic_chart(Signomial.from_terms(arity, terms))


@st.composite
def probe_cases(draw):
    arity = draw(st.integers(1, 3))
    chart = draw_chart(draw, arity)
    rational = draw(st.booleans())
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
    return chart, curve


@st.composite
def witness_cases(draw):
    # coordinates >= 1/30 and a direction of max-norm <= 1 give _reach >= 1e-2,
    # as on every catalog curve and every unit kernel vector
    arity = draw(st.integers(1, 3))
    base = draw(st.lists(st.floats(min_value=1 / 30, max_value=4.0),
                         min_size=arity, max_size=arity))
    component = st.floats(min_value=-1.0, max_value=1.0).filter(lambda c: abs(c) >= 1e-3)
    direction = draw(st.lists(st.one_of(st.just(0.0), component), min_size=arity,
                              max_size=arity).filter(any))
    curve = CurveSpec(base=tuple(base), direction=tuple(direction))
    assert _reach(curve) >= 1e-2
    return draw_chart(draw, arity, min_terms=1), curve, draw(st.sampled_from([1.0, -1.0]))


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


def _tensor_sums(f, base, direction):
    """Exact (S1, S2, S3) by the tensor path: every partial of order m
    summed exactly at base, term by term, and contracted with direction by
    _contract."""
    return tuple(
        _contract([exact_term_sum(f.derivative(alpha), base)
                   for alpha in itertools.combinations_with_replacement(range(f.arity), m)],
                  tuple(map(F, direction)), m)
        for m in (1, 2, 3)
    )


power_exponents = st.builds(F, st.integers(-8, 8), st.integers(1, 4))


@st.composite
def power_sum_cases(draw):
    arity = draw(st.integers(1, 4))
    coeff = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 4))
    terms = draw(st.lists(
        st.tuples(coeff, st.dictionaries(st.integers(0, arity - 1), power_exponents,
                                         max_size=arity)),
        max_size=5))
    base = draw(st.lists(power_bases, min_size=arity, max_size=arity))
    direction = draw(st.lists(st.builds(F, st.integers(-12, 12), st.integers(1, 6)),
                              min_size=arity, max_size=arity).filter(any))
    chart = synthetic_chart(Signomial.from_terms(arity, terms))
    return chart, CurveSpec(tuple(base), tuple(direction))


@settings(deadline=None, max_examples=200)
@given(power_sum_cases())
def test_power_sums_match_the_tensor_path(case):
    chart, curve = case
    try:
        want = _tensor_sums(chart.reduced, curve.base, curve.direction)
    except ExactEvaluationError:
        with pytest.raises(ExactEvaluationError, match="is irrational"):
            directional_derivatives(chart, curve, mode="exact")
        assert directional_derivatives(chart, curve, mode="auto").mode == "float"
        return
    res = directional_derivatives(chart, curve, mode="exact")
    assert all(type(v) is F for v in (res.s1, res.s2, res.s3))
    assert (res.s1, res.s2, res.s3) == want


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


@settings(deadline=None, max_examples=150)
@given(witness_cases())
def test_witness_matches_the_fixed_start_reference(case):
    chart, curve, s3 = case
    try:
        want = _reference_improving_offset(chart, curve, s3)
    except ProbeInconsistency:
        # the search goes on below 1e-2 / 2^20, down to where the step rounds away
        vmax = max(abs(c) for c in curve.direction)
        try:
            got = improving_offset(chart, curve, s3)
        except ProbeInconsistency:
            return
        assert max(abs(w - b) for w, b in zip(got, curve.base)) <= 1e-2 * 2.0 ** -20 * vmax
        return
    got = improving_offset(chart, curve, s3)
    assert [x.hex() for x in got] == [x.hex() for x in want]


# sha256 of the .hex() of fd_check_auto along every catalog curve, in
# default_entries() order
FD_AUTO_BITS_SHA256 = "9ff867ff1d4f8b308d68dc4fdb1098c72bac660c38c44c7b329944fe2c4b70f0"


def test_fd_check_auto_bits_are_pinned():
    digest = hashlib.sha256()
    for entry in default_entries():
        bits = fd_check_auto(entry.chart, entry.curve())
        digest.update((" ".join(x.hex() for x in bits) + "\n").encode())
    assert digest.hexdigest() == FD_AUTO_BITS_SHA256


# -- the fd ladder and the contraction against the loops they replaced -------------

def _reference_fd_check_auto(chart, curve):
    """The ladder with the public fd_check per rung: each rung and the final
    order-2 estimate evaluate their own abscissae."""
    base = suggest_fd_step(chart, curve) / 4.0
    h_cap = _reach(curve)
    h0 = min(base, h_cap / 2)
    rungs = [(h0, fd_check(chart, curve, h=h0))]
    h = h0
    for _ in range(9):
        if 2 * h > h_cap:
            break
        h *= 2
        rungs.append((h, fd_check(chart, curve, h=h)))
    gaps = [abs(rungs[k + 1][1][2] - rungs[k][1][2]) for k in range(len(rungs) - 1)]
    k = min(range(len(gaps)), key=gaps.__getitem__)
    pick = k + 1 if k == 0 else k
    h_pick, values = rungs[pick]
    s1, s2 = fd_check(chart, curve, h=h_pick / 4, order=2)
    return s1, s2, values[2]


def _outcome(fn, *args):
    """The .hex() of each float fn returns, or the type and text of its error."""
    try:
        return [v.hex() for v in fn(*args)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fd_check_auto_matches_the_per_rung_reference_on_the_catalog(name):
    entry = CATALOG[name]
    curve = entry.curve()
    assert _outcome(fd_check_auto, entry.chart, curve) == \
        _outcome(_reference_fd_check_auto, entry.chart, curve)


@st.composite
def fd_cases(draw):
    """An admissible two-summand chart, or the chart of a drawn space with
    three to five summands (arity 2 to 4), on a line with a positive
    rational base and a nonzero rational direction."""
    chart = draw(st.one_of(_admissible_two_summand_charts(),
                           spaces().filter(lambda s: s.r >= 3).map(restrict)))
    rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    base = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=12)
    direction = draw(st.lists(rationals, min_size=chart.arity, max_size=chart.arity)
                     .filter(any))
    bases = draw(st.lists(base, min_size=chart.arity, max_size=chart.arity))
    return chart, CurveSpec(tuple(bases), tuple(direction))


@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.filter_too_much])
@given(fd_cases())
def test_fd_check_auto_matches_the_per_rung_reference_on_drawn_charts(case):
    chart, curve = case
    assert _outcome(fd_check_auto, chart, curve) == _outcome(_reference_fd_check_auto, chart, curve)


def test_fd_check_auto_evaluates_each_abscissa_once(monkeypatch):
    # the rungs double exactly, so rung 2h's +-h are rung h's +-2h and f(0)
    # is common to all: 362 evaluations over the catalog where the per-rung
    # ladder made 764
    evaluated, eval_float = [], Signomial.eval_float

    def counted(self, point):
        evaluated[-1].append(tuple(point))
        return eval_float(self, point)

    monkeypatch.setattr(Signomial, "eval_float", counted)
    for entry in default_entries():
        evaluated.append([])
        fd_check_auto(entry.chart, entry.curve())
        assert len(evaluated[-1]) == len(set(evaluated[-1])), entry.family
    assert sum(map(len, evaluated)) == 362


def _reference_groupby_contract(values, direction, order):
    """The contraction as it was, each alpha's multinomial and runs rebuilt by
    groupby and factorial on every call."""
    total = 0
    alphas = itertools.combinations_with_replacement(range(len(direction)), order)
    for alpha, value in zip(alphas, values):
        mult, dirprod = math.factorial(order), 1
        for i, run in itertools.groupby(alpha):
            count = len(tuple(run))
            mult //= math.factorial(count)
            dirprod *= direction[i] ** count
        total += mult * value * dirprod
    return total


@st.composite
def contraction_cases(draw):
    arity, order = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    count = math.comb(arity + order - 1, order)
    component = st.floats(min_value=-1e3, max_value=1e3)
    values = draw(st.lists(component, min_size=count, max_size=count))
    return values, tuple(draw(st.lists(component, min_size=arity, max_size=arity))), order


@settings(deadline=None, max_examples=300)
@given(contraction_cases())
def test_contract_is_the_groupby_loop(case):
    values, direction, order = case
    assert _contract(values, direction, order).hex() == \
        float(_reference_groupby_contract(values, direction, order)).hex()
