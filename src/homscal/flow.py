"""Gradient ascent of the reduced scalar curvature on a slice chart.

Classical fixed-step fourth-order (RK4) integration of u' = grad f(u) in
chart coordinates.  The value of f is nondecreasing along exact solutions,
and the integrator enforces that property per step up to a small tolerance;
the module's claims are monotonicity and escape from degenerate critical
points, nothing more.  Values and gradients come from the chart's own float
evaluator (Signomial.eval_float and SliceChart.gradient_values), so every
recorded value equals chart.reduced.eval_float at the recorded point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chart import SliceChart


class FlowError(RuntimeError):
    pass


@dataclass
class Trajectory:
    times: list[float]
    points: list[tuple[float, ...]]
    values: list[float]
    step: float
    reason: str  # "gradient-small" | "left-region" | "budget"

    def rows(self) -> list[tuple[float, ...]]:
        """(t, coordinates..., value) rows for export."""
        return [
            (t, *p, v) for t, p, v in zip(self.times, self.points, self.values)
        ]


def integrate_ascent(
    chart: SliceChart,
    start: Sequence[float],
    step: float = 1e-3,
    max_steps: int = 100_000,
    region: "Sequence[tuple[float, float]] | None" = None,
) -> Trajectory:
    """Integrate u' = grad f(u) from start until |grad| < 1e-10, the
    trajectory leaves the region, or the step budget runs out.

    A step is rejected and retried at half size when its stages or endpoint
    leave the positive orthant, or when it would decrease the value by more
    than 1e-10 (an overshoot symptom where the gradient is stiff); twenty
    consecutive rejections raise FlowError.  The decrease is tested as
    new - old >= -1e-10: the two values are close, so the difference is
    exact and consecutive recorded values never differ by less than -1e-10.
    The nominal step is restored after every accepted step.  The gradient at
    u is evaluated once and serves as the first RK4 stage of every attempt
    from u, so an accepted step without rejections costs four gradient
    evaluations.
    """
    f, grad = chart.reduced.eval_float, chart.gradient_values
    u = np.array([float(x) for x in start], dtype=float)
    if len(u) != chart.arity or np.any(u <= 0):
        raise ValueError("start must be a strictly positive chart point")
    if region is not None:
        region = [(float(lo), float(hi)) for lo, hi in region]
        if any(not lo < x < hi for x, (lo, hi) in zip(u, region)):
            raise ValueError("start lies outside the region")

    times = [0.0]
    points = [tuple(u)]
    values = [f(u)]
    t = 0.0

    def rk4(u0: np.ndarray, k1: np.ndarray, h: float) -> "np.ndarray | None":
        p2 = u0 + 0.5 * h * k1
        if np.any(p2 <= 0):
            return None
        k2 = grad(p2)
        p3 = u0 + 0.5 * h * k2
        if np.any(p3 <= 0):
            return None
        k3 = grad(p3)
        p4 = u0 + h * k3
        if np.any(p4 <= 0):
            return None
        k4 = grad(p4)
        out = u0 + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.any(out <= 0):
            return None
        return out

    reason = "budget"
    for _ in range(max_steps):
        g = grad(u)
        if float(np.linalg.norm(g)) < 1e-10:
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
            raise FlowError(
                "step rejected 20 times (positivity or monotonicity); "
                "the ascent field is too stiff for the requested step"
            )
        u = nxt
        t += h
        times.append(t)
        points.append(tuple(u))
        values.append(new_val)
        if region is not None and any(
            not lo < x < hi for x, (lo, hi) in zip(u, region)
        ):
            reason = "left-region"
            break
    return Trajectory(times=times, points=points, values=values, step=step, reason=reason)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    width = len(traj.points[0])
    header = "t," + ",".join(f"x{i}" for i in range(width)) + ",value"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in traj.rows():
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
