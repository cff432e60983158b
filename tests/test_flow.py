"""Gradient ascent on slice charts: monotonicity, escape, termination."""

import dis
import hashlib
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homscal import flow
from homscal.catalog import build, default_entries
from homscal.chart import SliceChart, restrict, vector_norm
from homscal.flow import FlowError, Trajectory, integrate_ascent, write_trajectory_csv
from homscal.signomial import Signomial, _kernel_template
from homscal.space import space_from_dict


def sig(arity, *pairs):
    return Signomial.from_terms(arity, [(F(c), e) for c, e in pairs])


def synthetic_chart(reduced):
    return SliceChart(label="synthetic", dims=(1,) * (reduced.arity + 1),
                      eliminated=reduced.arity, reduced=reduced)


def _powers(fn):
    """The number of ** operations in a compiled kernel or RK4 ascent
    (BINARY_POWER before Python 3.11, BINARY_OP ** from 3.11 on)."""
    return sum(ins.opname == "BINARY_POWER" or (ins.opname == "BINARY_OP" and ins.argrepr == "**")
               for ins in dis.get_instructions(fn))


class TestAscent:
    def test_witness_start_escapes_and_never_returns(self):
        entry = build("e6_su2_so6")
        crit = 1.0
        traj = integrate_ascent(
            entry.chart, (1.01,), region=[(0.9, 1.1)], max_steps=20_000
        )
        assert traj.reason == "left-region"
        diffs = np.diff(traj.values)
        assert diffs.min() >= -1e-10
        assert traj.values[-1] > entry.chart.reduced.eval_float((crit,))
        assert min(abs(p[0] - crit) for p in traj.points) > 1e-4

    @pytest.mark.parametrize("family, n", [("e6_su2_so6", None), ("su_n", 4), ("su2n_mod_spn", 5)])
    def test_values_are_the_chart_evaluator(self, family, n):
        entry = build(family, n)
        start = tuple(float(x) * 1.01 for x in entry.critical_point)
        traj = integrate_ascent(entry.chart, start, max_steps=200)
        assert len(traj.values) == len(traj.points) > 1
        for p, v in zip(traj.points, traj.values):
            assert v == entry.chart.reduced.eval_float(p)

    @pytest.mark.parametrize("n, start, steps", [
        (6, (1.2562145573916987, 0.631906575881125), 200),
        (5, (1.2981448780719809, 0.6438549576043188), 1000),
    ])
    def test_accepted_steps_never_fall_by_more_than_the_tolerance(self, n, start, steps):
        # near scal ~ 675 and ~ 1249 an accepted value can sit half an ulp of
        # rounding below values[-1] - 1e-10; these starts once gave a step
        # with np.diff == -1.000444e-10
        entry = build("su2n_mod_spn", n)
        region = [(float(c) - 0.2, float(c) + 0.2) for c in entry.critical_point]
        traj = integrate_ascent(entry.chart, start, max_steps=steps, region=region)
        assert np.diff(traj.values).min() >= -1e-10

    @pytest.mark.parametrize("family, n", [("e6_su2_so6", None), ("su_n", 4)])
    def test_step_without_rejection_costs_four_gradients(self, monkeypatch, family, n):
        entry = build(family, n)
        calls, bound = [], []
        partials_float, eval_float = Signomial.partials_float, Signomial.eval_float
        hessian_float, compiled = Signomial.hessian_float, Signomial._compiled

        def counted_partials(self, point, order, absolute=False):
            calls.append(("partials", order, absolute))
            return partials_float(self, point, order, absolute)

        def counted_value(self, point):
            calls.append(("value",))
            return eval_float(self, point)

        def counted_hessian(self, point):
            calls.append(("hessian",))
            return hessian_float(self, point)

        def counted_build(self, template, *orders, absolute=False):
            bound.append((template, *orders, absolute))
            return compiled(self, template, *orders, absolute=absolute)

        monkeypatch.setattr(Signomial, "partials_float", counted_partials)
        monkeypatch.setattr(Signomial, "eval_float", counted_value)
        monkeypatch.setattr(Signomial, "hessian_float", counted_hessian)
        monkeypatch.setattr(Signomial, "_compiled", counted_build)
        start = tuple(float(x) * 1.01 for x in entry.critical_point)
        traj = integrate_ascent(entry.chart, start, max_steps=50)
        assert traj.reason == "budget"
        # no step was halved: the times are the running sums of 50 full steps
        assert traj.times == list(itertools.accumulate([traj.step] * 50, initial=0.0))
        # the value at the start, its kernel bound on that call, then the
        # one bound ascent: no evaluator call per step
        assert calls == [("value",)]
        assert bound == [(_kernel_template, 0, False), (flow._ascent_template, 1, 0, False)]
        # each pass of the loop writes out the gradient at u, the three
        # stage gradients and the endpoint's value
        f = entry.chart.reduced
        ascent = compiled(f, flow._ascent_template, 1, 0)
        gradient, value = (_powers(compiled(f, _kernel_template, order)) for order in (1, 0))
        assert gradient > 0
        assert _powers(ascent) == 4 * gradient + value

    def test_start_at_critical_point_terminates_immediately(self):
        entry = build("su_n", 3)
        traj = integrate_ascent(entry.chart, (1.0, 1.0))
        assert traj.reason == "gradient-small"
        assert len(traj.points) == 1

    def test_descending_side_is_still_monotone(self):
        entry = build("su_n", 3)
        start = np.array([1.0, 1.0]) - 1e-3 * np.array([-2.0, 1.0])
        traj = integrate_ascent(entry.chart, tuple(start), max_steps=3000,
                                region=[(0.8, 1.2), (0.8, 1.2)])
        assert np.diff(traj.values).min() >= -1e-10

    def test_budget_termination(self):
        entry = build("e6_su2_so6")
        traj = integrate_ascent(entry.chart, (1.01,), max_steps=5)
        assert traj.reason == "budget"
        assert len(traj.points) == 6

    def test_start_outside_region_rejected(self):
        entry = build("e6_su2_so6")
        with pytest.raises(ValueError, match="outside"):
            integrate_ascent(entry.chart, (1.5,), region=[(0.9, 1.1)])

    def test_nonpositive_start_rejected(self):
        entry = build("e6_su2_so6")
        with pytest.raises(ValueError, match="positive"):
            integrate_ascent(entry.chart, (0.0,))

    @pytest.mark.parametrize("kwargs, match", [
        ({"start": (1.0,)}, "start has 1 coordinates, chart arity is 2"),
        ({"start": (1.0, 1.0, 1.0)}, "start has 3 coordinates, chart arity is 2"),
        ({"start": (float("nan"), 1.0)}, "start coordinate 0 .* got nan"),
        ({"start": (1.0, float("inf"))}, "start coordinate 1 .* got inf"),
        ({"start": (float("-inf"), 1.0)}, "start coordinate 0 .* got -inf"),
        ({"region": [(0.5, 2.0)]}, "region has 1 intervals, chart arity is 2"),
        ({"step": -1e-3}, "step must be finite and > 0"),
        ({"step": 0.0}, "step must be finite and > 0"),
        ({"step": float("nan")}, "step must be finite and > 0"),
        ({"step": float("inf")}, "step must be finite and > 0"),
        ({"max_steps": 2.5}, "max_steps must be an integer >= 0, got 2.5"),
        ({"max_steps": True}, "max_steps must be an integer >= 0, got True"),
        ({"max_steps": -3}, "max_steps must be an integer >= 0, got -3"),
    ])
    def test_malformed_input_rejected(self, kwargs, match):
        entry = build("su_n", 3)
        args = {"start": (1.02, 0.99), **kwargs}
        with pytest.raises(ValueError, match=match):
            integrate_ascent(entry.chart, **args)

    def test_orthant_collapse_raises(self):
        # ascent of 1/x drives x to 0; the positivity rejection runs out
        chart = synthetic_chart(sig(1, (1, {0: -1})))
        with pytest.raises(FlowError, match="rejected"):
            integrate_ascent(chart, (0.05,), step=1.0, max_steps=2000)


# -- the flow on plain floats against the ndarray RK4 ------------------------------
# _reference_integrate_ascent is integrate_ascent as it was when it held its
# point and stages as ndarrays and took each gradient entry from its own
# partial(i).eval_float; the float-list integrator must match it bit for bit.


def _plain_norm(g):
    """sqrt of the sum of squares, summed in index order."""
    total = 0.0
    for x in g:
        total += x * x
    return math.sqrt(total)


def _reference_gradient(chart, point):
    f = chart.reduced
    return np.array([f.partial(i).eval_float(point) for i in range(chart.arity)], dtype=float)


def _reference_integrate_ascent(chart, start, step=1e-3, max_steps=100_000, region=None):
    f = chart.reduced.eval_float
    u = np.array([float(x) for x in start], dtype=float)
    if region is not None:
        region = [(float(lo), float(hi)) for lo, hi in region]
    times, points, values, t = [0.0], [tuple(u)], [f(u)], 0.0

    def rk4(u0, k1, h):
        p2 = u0 + 0.5 * h * k1
        if np.any(p2 <= 0):
            return None
        k2 = _reference_gradient(chart, p2)
        p3 = u0 + 0.5 * h * k2
        if np.any(p3 <= 0):
            return None
        k3 = _reference_gradient(chart, p3)
        p4 = u0 + h * k3
        if np.any(p4 <= 0):
            return None
        k4 = _reference_gradient(chart, p4)
        out = u0 + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.any(out <= 0):
            return None
        return out

    reason = "budget"
    for _ in range(max_steps):
        g = _reference_gradient(chart, u)
        if _plain_norm(g) < 1e-10:
            reason = "gradient-small"
            break
        h = step
        for _rej in range(20):
            nxt = rk4(u, g, h)
            if nxt is not None:
                new_val = f(nxt)
                if new_val - values[-1] >= -1e-10:
                    break
            h *= 0.5
        else:
            raise FlowError("step rejected 20 times")
        u = nxt
        t += h
        times.append(t)
        points.append(tuple(u))
        values.append(new_val)
        if region is not None and any(not lo < x < hi for x, (lo, hi) in zip(u, region)):
            reason = "left-region"
            break
    return Trajectory(times=times, points=points, values=values, step=step, reason=reason)


def _bits(traj):
    return (
        traj.reason,
        [t.hex() for t in traj.times],
        [tuple(float(x).hex() for x in p) for p in traj.points],
        [v.hex() for v in traj.values],
    )


def _flow_cases():
    # two starts 1e-2 off each default catalog point, region +-0.2, as in
    # acceptance criterion 8; a start whose steps are rejected and halved;
    # and a 5% offset at step 5e-2, where h*k is large enough against u that
    # reordering the RK4 sums shows in the last bit of the points
    rng = np.random.default_rng(9)
    cases = []
    for entry in default_entries():
        crit = np.array([float(x) for x in entry.critical_point])
        region = [(max(c - 0.2, 1e-3), c + 0.2) for c in crit]
        name = f"{entry.family}-{entry.n}"
        for k in range(2):
            direction = rng.normal(size=len(crit))
            start = tuple(crit + 1e-2 * direction / np.linalg.norm(direction))
            cases.append(pytest.param(entry.chart, start, 1e-3, 300, region, id=f"{name}-{k}"))
        cases.append(pytest.param(entry.chart, tuple(1.05 * crit), 5e-2, 100, None,
                                  id=f"{name}-coarse"))
    entry = build("su2n_mod_spn", 6)
    region = [(float(c) - 0.2, float(c) + 0.2) for c in entry.critical_point]
    cases.append(pytest.param(entry.chart, (1.2562145573916987, 0.631906575881125), 1e-3, 200,
                              region, id="su2n_mod_spn-6-rejecting"))
    return cases


class TestFloatFlowMatchesArrayFlow:
    @pytest.mark.parametrize("chart, start, step, steps, region", _flow_cases())
    def test_same_trajectory_as_reference(self, chart, start, step, steps, region):
        traj = integrate_ascent(chart, start, step=step, max_steps=steps, region=region)
        assert _bits(traj) == _bits(
            _reference_integrate_ascent(chart, start, step=step, max_steps=steps, region=region)
        )
        assert all(type(x) is float for p in traj.points for x in p)

    def test_rejecting_case_rejects(self):
        (case,) = [c for c in _flow_cases() if c.id == "su2n_mod_spn-6-rejecting"]
        chart, start, step, steps, region = case.values
        traj = integrate_ascent(chart, start, step=step, max_steps=steps, region=region)
        # a halved step shows as a time increment of about half the nominal step
        assert min(np.diff(traj.times)) < 0.75 * traj.step


def _outcome(integrate, chart, start, step, steps, region):
    """The trajectory's bits, or the type of the error it ended with."""
    try:
        with np.errstate(all="ignore"):
            return _bits(integrate(chart, start, step=step, max_steps=steps, region=region))
    except (FlowError, OverflowError) as exc:
        return type(exc)


@st.composite
def _synthetic_flows(draw):
    arity = draw(st.integers(0, 4))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    pairs = [
        (draw(rational.filter(bool)),
         {i: draw(rational) for i in range(arity) if draw(st.booleans())})
        for _ in range(draw(st.integers(1, 4)))
    ]
    start = tuple(draw(st.floats(0.25, 4.0)) for _ in range(arity))
    step = draw(st.sampled_from([1e-3, 1e-2, 0.1, 0.5, 2.0]))
    region = draw(st.none() | st.tuples(*(
        st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)) for _ in range(arity))))
    if region is not None:
        region = [(x - lo, x + hi) for x, (lo, hi) in zip(start, region)]
    steps = draw(st.integers(0, 40))
    return synthetic_chart(Signomial.from_terms(arity, pairs)), start, step, steps, region


class TestCompiledAttemptMatchesArrayFlow:
    # rational exponents on charts of arity 0 to 4, with rejected and halved
    # steps, region exits, orthant collapse and overflowing stage terms
    @settings(max_examples=150, deadline=None)
    @given(_synthetic_flows())
    @example((synthetic_chart(sig(0, (F(5, 4), {}))), (), 1e-3, 10, None))
    @example((synthetic_chart(sig(1, (1, {0: -1}))), (0.05,), 1.0, 30, None))
    @example((synthetic_chart(sig(2, (F(-1, 2), {0: 2}), (F(3, 2), {1: F(-1, 3)}))),
              (1.0, 0.5), 0.5, 40, [(0.5, 1.5), (0.25, 0.75)]))
    def test_same_outcome_as_reference(self, case):
        assert _outcome(integrate_ascent, *case) == _outcome(_reference_integrate_ascent, *case)

    def test_arity_zero_chart_stops_at_once(self):
        chart = synthetic_chart(sig(0, (F(5, 4), {})))
        traj = integrate_ascent(chart, (), max_steps=10)
        assert (traj.reason, traj.points, traj.values) == ("gradient-small", [()], [1.25])

    def test_overflowing_stage_term_raises_in_both_paths(self):
        # f = x^400 / 400 has gradient x^399: 1 at the start, but the first
        # stage point 1 + 0.5 * 10 = 6 raises it beyond a double
        chart = synthetic_chart(sig(1, (F(1, 400), {0: 400})))
        for integrate in (integrate_ascent, _reference_integrate_ascent):
            with pytest.raises(OverflowError):
                integrate(chart, (1.0,), step=10.0, max_steps=5)
        assert integrate_ascent(chart, (1.0,), step=1e-4, max_steps=5).reason == "budget"

    def test_gradient_coefficient_beyond_a_double_names_its_partial(self):
        # the value's coefficient 1e308 is a double, the gradient's 2e308 is not
        chart = synthetic_chart(sig(1, (10 ** 308, {0: 2})))
        with pytest.raises(OverflowError, match=r"partial \(0,\) of order 1 has coefficient 2e\+308"):
            integrate_ascent(chart, (1.0,), max_steps=5)
        assert integrate_ascent(chart, (1.0,), max_steps=0).values == [1e308]

    def test_three_ascents_on_one_chart_bind_the_attempt_once(self):
        # a fresh chart of su_n n=4's terms: its memo holds no bound ascent yet
        reduced = build("su_n", 4).chart.reduced
        chart = synthetic_chart(Signomial(reduced.arity, reduced.terms))
        before = flow._ascent_template.cache_info()
        trajectories = [integrate_ascent(chart, (1.01, 0.99), max_steps=20) for _ in range(3)]
        after = flow._ascent_template.cache_info()
        assert after.hits + after.misses - before.hits - before.misses == 1
        assert all(len(traj.points) == 21 for traj in trajectories)
        assert chart.reduced._kernels[flow._ascent_template, False, 1, 0] is not None


def _gradient_chart(g):
    """A chart whose gradient at (10, ..., 10) is g, and that point.

    A finite entry g_i is the term g_i * x_i, whose partial is the constant
    g_i; an infinite one is 1e308/2 * x_i^2 (1e308 * 10 overflows), and a nan
    adds -1e308/3 * x_i^3 to it (inf - inf)."""
    pairs = []
    for i, x in enumerate(g):
        if math.isfinite(x):
            pairs.append((F(x), {i: 1}))
        else:
            pairs.append((F(1e308) / 2, {i: 2}))
            if math.isnan(x):
                pairs.append((-F(1e308) / 3, {i: 3}))
    return synthetic_chart(Signomial.from_terms(len(g), pairs)), (10.0,) * len(g)


def _stops(g):
    """Whether integrate_ascent stops on the gradient g before its one step."""
    chart, start = _gradient_chart(g)
    assert chart.reduced.partials_float(start, 1) == pytest.approx(g, nan_ok=True)
    try:
        reason = integrate_ascent(chart, start, max_steps=1).reason
    except FlowError:  # a nan gradient makes every endpoint value nan
        return False
    return reason == "gradient-small"


class TestStopTest:
    # each case runs the stop test of the compiled ascent
    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    @pytest.mark.parametrize("rel", [-2e-3, -1.0001e-3, -0.9999e-3, -1e-6, 0.0,
                                     1e-6, 0.9999e-3, 1.0001e-3, 2e-3])
    def test_decisions_are_the_plain_norms(self, arity, rel):
        rng = np.random.default_rng(arity)
        for _ in range(300):
            d = rng.normal(size=arity)
            g = [float(x) for x in d / np.linalg.norm(d) * (1e-10 * (1 + rel))]
            stops = _stops(g)
            assert stops == (_plain_norm(g) < 1e-10) == (vector_norm(g) < 1e-10)
            # the plain norm is within a few ulps of numpy's: outside +-0.1%
            # of the threshold the two decide alike
            if abs(rel) > 1e-3:
                assert stops == (float(np.linalg.norm(g)) < 1e-10)

    @pytest.mark.parametrize("g, stops", [
        (["0x1.2f3517d243854p-34", "-0x1.3e948e79d01b3p-34"], True),
        (["0x1.2a129530c1074p-34", "0x1.b1da0a099cde8p-35", "-0x1.dfaef1a91a6b5p-35"], False),
        (["0x1.68897a2f346ccp-34", "-0x1.9c2c466eb28b6p-38", "-0x1.0c13c94193742p-37",
          "0x1.f09b6fb92eefcp-35"], False),
    ])
    def test_norms_of_the_threshold_decide_by_the_plain_sum(self, g, stops):
        # gradients of norm 1e-10 up to roundoff, where math.hypot and
        # numpy's norm fall on either side of it: the plain sum decides
        g = [float.fromhex(x) for x in g]
        assert (math.hypot(*g) < 1e-10) != (float(np.linalg.norm(g)) < 1e-10)
        assert _stops(g) == (_plain_norm(g) < 1e-10) == stops

    @pytest.mark.parametrize("scale", [0.9989e-10, 0.9991e-10, 1.0009e-10, 1.0011e-10])
    def test_one_norm_decides_on_either_side(self, scale):
        g = [0.6 * scale, -0.8 * scale]
        assert _stops(g) == (_plain_norm(g) < 1e-10) == (scale < 1e-10)

    @pytest.mark.parametrize("g", [[], [0.0], [1e-200, -1e-200], [1e200, 1e200, 1.0],
                                   [float("nan"), 1.0], [float("inf"), float("nan")]])
    def test_extremes(self, g):
        assert _stops(g) == (_plain_norm(g) < 1e-10)


# sha256 of the .hex() of every point and value of the three trajectories below
FLOW_BITS_SHA256 = "224cbbbb63bb4cfbfe428b4a7865d5c8b4d656701dadbc0e3d159689a6f0b7fc"


def test_flow_bits_are_pinned():
    # starts 1e-2 off the catalog point, region +-0.2, as in acceptance
    # criterion 8: one chart of arity 1 and two of arity 2, 400 steps each
    digest = hashlib.sha256()
    for family, n, direction in [("so2n_flag", 6, (1.0,)), ("su_n", 5, (0.6, -0.8)),
                                 ("su2n_mod_spn", 4, (-0.8, 0.6))]:
        entry = build(family, n)
        crit = [float(x) for x in entry.critical_point]
        start = tuple(c + 1e-2 * d for c, d in zip(crit, direction))
        region = [(max(c - 0.2, 1e-3), c + 0.2) for c in crit]
        traj = integrate_ascent(entry.chart, start, max_steps=400, region=region)
        assert (len(traj.values), traj.reason) == (401, "budget")
        for p, v in zip(traj.points, traj.values):
            digest.update((" ".join(x.hex() for x in p) + " " + v.hex() + "\n").encode())
    assert digest.hexdigest() == FLOW_BITS_SHA256


class TestExport:
    def test_csv_rows(self, tmp_path):
        entry = build("su_n", 3)
        traj = integrate_ascent(entry.chart, (1.02, 0.99), max_steps=50)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x0,x1,value"
        assert len(lines) == len(traj.points) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.02)
        assert first[3] == pytest.approx(entry.chart.reduced.eval_float((1.02, 0.99)))

    @pytest.mark.parametrize("arity", [0, 1, 2])
    def test_header_and_rows_have_one_width(self, tmp_path, arity):
        if arity == 0:
            space = space_from_dict({"name": "one", "dims": [3],
                                     "triples": [{"i": 0, "j": 0, "k": 0, "value": 1}]})
            chart, start = restrict(space), ()
        else:
            entry = build("so2n_flag", 4) if arity == 1 else build("su_n", 3)
            chart = entry.chart
            start = tuple(float(x) + 1e-2 for x in entry.critical_point)
        traj = integrate_ascent(chart, start, max_steps=5)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(["t", *(f"x{i}" for i in range(arity)), "value"])
        assert len(lines) == len(traj.points) + 1
        assert {len(line.split(",")) for line in lines} == {arity + 2}
