"""Gradient ascent on slice charts: monotonicity, escape, termination."""

from fractions import Fraction as F

import numpy as np
import pytest

from homscal.catalog import build
from homscal.chart import SliceChart
from homscal.flow import FlowError, integrate_ascent, write_trajectory_csv
from homscal.signomial import Signomial


def sig(arity, *pairs):
    return Signomial.from_terms(arity, [(F(c), e) for c, e in pairs])


def synthetic_chart(reduced):
    return SliceChart(label="synthetic", dims=(1,) * (reduced.arity + 1),
                      eliminated=reduced.arity, reduced=reduced)


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

    def test_orthant_collapse_raises(self):
        # ascent of 1/x drives x to 0; the positivity rejection runs out
        chart = synthetic_chart(sig(1, (1, {0: -1})))
        with pytest.raises(FlowError, match="rejected"):
            integrate_ascent(chart, (0.05,), step=1.0, max_steps=2000)


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
