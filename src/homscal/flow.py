"""Gradient ascent of the reduced scalar curvature on a slice chart.

Classical fixed-step fourth-order (RK4) integration of u' = grad f(u) in
chart coordinates.  The value of f is nondecreasing along exact solutions,
and the integrator enforces that property per step up to a small tolerance;
the module's claims are monotonicity and escape from degenerate critical
points, nothing more.  Values and gradients come from the chart's own float
evaluator (Signomial.eval_float and Signomial.partials_float(u, 1) on
chart.reduced), so every recorded value equals chart.reduced.eval_float at
the recorded point.  The integrator holds its point, stages and trials as
lists of Python floats and forms each stage coordinate by coordinate in the
operation order of the array expression u + 0.5*h*k, so it takes the same
doubles an ndarray RK4 would, without per-stage array dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .chart import SliceChart, vector_norm


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
    evaluations.  A start that is not a finite positive chart point, a
    region that does not give one interval per chart coordinate, or a step
    that is not finite and > 0 raises ValueError.
    """
    f, partials = chart.reduced.eval_float, chart.reduced.partials_float
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    u = [float(x) for x in start]
    if len(u) != chart.arity:
        raise ValueError(f"start has {len(u)} coordinates, chart arity is {chart.arity}")
    for i, x in enumerate(u):
        if not (math.isfinite(x) and x > 0):
            raise ValueError(f"start coordinate {i} must be finite and positive, got {x!r}")
    if region is not None:
        region = [(float(lo), float(hi)) for lo, hi in region]
        if len(region) != chart.arity:
            raise ValueError(
                f"region has {len(region)} intervals, chart arity is {chart.arity}"
            )
        if any(not lo < x < hi for x, (lo, hi) in zip(u, region)):
            raise ValueError("start lies outside the region")

    times = [0.0]
    points = [tuple(u)]
    values = [f(u)]
    t = 0.0

    def rk4(u0: list[float], k1: list[float], h: float) -> "list[float] | None":
        # per coordinate in the order of u0 + (0.5*h)*k1 and
        # u0 + (h/6)*(((k1 + 2*k2) + 2*k3) + k4): another order changes last bits
        half = 0.5 * h
        p2 = [x + half * k for x, k in zip(u0, k1)]
        if any(x <= 0 for x in p2):
            return None
        k2 = partials(p2, 1)
        p3 = [x + half * k for x, k in zip(u0, k2)]
        if any(x <= 0 for x in p3):
            return None
        k3 = partials(p3, 1)
        p4 = [x + h * k for x, k in zip(u0, k3)]
        if any(x <= 0 for x in p4):
            return None
        k4 = partials(p4, 1)
        sixth = h / 6.0
        out = [
            x + sixth * (a + 2 * b + 2 * c + d)
            for x, a, b, c, d in zip(u0, k1, k2, k3, k4)
        ]
        if any(x <= 0 for x in out):
            return None
        return out

    reason = "budget"
    for _ in range(max_steps):
        g = partials(u, 1)
        if vector_norm(g) < 1e-10:
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
