"""Gradient ascent of the reduced scalar curvature on a slice chart.

Classical fixed-step fourth-order (RK4) integration of u' = grad f(u) in
chart coordinates.  The value of f is nondecreasing along exact solutions,
and the integrator enforces that property per step up to a small tolerance;
the module's claims are monotonicity and escape from degenerate critical
points, nothing more.  The whole ascent runs on plain floats as one
generated function (_ascent_template), bound once per chart by
Signomial._compiled.  Each coordinate is formed in the operation order of
the array expression (u + 0.5*h*k and so on), so the integrator takes the
same doubles an ndarray RK4 would, and every recorded value equals
chart.reduced.eval_float at the recorded point.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

from .chart import SliceChart, _norm_source
from .signomial import _define, _names, _partial_sums


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


@functools.lru_cache(maxsize=256)
def _ascent_template(arity: int, gradient_shape: tuple, value_shape: tuple):
    """Compile the ascent loop for charts of one shape (see
    Signomial._order_constants): (u, step, max_steps, region, times, points,
    values, constants) -> reason, appending each accepted step to the three
    lists.  Bound per chart by
    Signomial._compiled(_ascent_template, 1, 0).

    The constants are those of the order-1 partials, then the value's.  Each
    step writes out the gradient at u, takes the stop test vector_norm < 1e-10
    (the Newton search's norm, by chart._norm_source), then tries up to 20
    RK4 attempts, halving h after each rejection.  Each coordinate is formed
    in the operation order of the array expressions u + half*k, u + h*k and
    u + sixth*(k1 + 2*k2 + 2*k3 + k4), and the four gradients and the
    endpoint's value are written out with the kernels' own term statements,
    so every double is the one the kernels would return.
    """

    def point(name: str, increment: str) -> list[str]:
        # u{i} + increment with {i} filled in, then the positivity check
        positive = _names(name + "{i} <= 0", arity, " or ", "False")
        return [*(f"    {name}{i} = u{i} + {increment.format(i=i)}" for i in range(arity)),
                f"    if {positive}:", "        h *= 0.5", "        continue"]

    attempt = ["    half = 0.5 * h"]
    for name, increment, slope in (("p", "half * a{i}", "b"), ("q", "half * b{i}", "c"),
                                   ("r", "h * c{i}", "d")):
        attempt += point(name, increment) + _partial_sums(gradient_shape, slope, name)[0]
    attempt.append("    sixth = h / 6.0")
    attempt += point("x", "sixth * (a{i} + 2 * b{i} + 2 * c{i} + d{i})")
    gradient, count = _partial_sums(gradient_shape, "a", "u")
    value, count = _partial_sums(value_shape, "v", "x", count)
    attempt += [*value, "    if v0 - last >= -1e-10:", "        break", "    h *= 0.5"]
    lines = [
        f"    [{_names('u{i}', arity)}] = u",
        "    if region is not None:",
        f"        [{_names('(lo{i}, hi{i})', arity)}] = region",
        "    t, last = 0.0, values[-1]",
        "    for _ in range(max_steps):",
        *(f"    {line}" for line in gradient),
        f"        if {_norm_source('a', arity)} < 1e-10:",
        "            return 'gradient-small'",
        "        h = step",
        "        for _ in range(20):",
        *(f"        {line}" for line in attempt),
        "        else:",
        "            raise FlowError('step rejected 20 times (positivity or monotonicity); '",
        "                            'the ascent field is too stiff for the requested step')",
        f"        [{_names('u{i}', arity)}] = [{_names('x{i}', arity)}]",
        "        t += h",
        "        times.append(t)",
        f"        points.append(({_names('x{i}, ', arity, '')}))",
        "        values.append(v0)",
        "        last = v0",
        "        if region is not None and not ({}):".format(
            _names("lo{i} < x{i} < hi{i}", arity, " and ", "True")),
        "            return 'left-region'",
        "    return 'budget'",
    ]
    names = {"FlowError": FlowError, "sqrt": math.sqrt}
    return _define("ascent", "u, step, max_steps, region, times, points, values", count,
                   lines, f"<rk4 ascent, arity {arity}>", names)


def integrate_ascent(
    chart: SliceChart,
    start: Sequence[float],
    step: float = 1e-3,
    max_steps: int = 100_000,
    region: "Sequence[tuple[float, float]] | None" = None,
) -> Trajectory:
    """Integrate u' = grad f(u) from start until chart.vector_norm(grad) <
    1e-10, the trajectory leaves the region, or the step budget runs out.

    A step is rejected and retried at half size when its stages or endpoint
    leave the positive orthant, or when it would decrease the value by more
    than 1e-10 (an overshoot symptom where the gradient is stiff); twenty
    consecutive rejections raise FlowError.  The decrease is tested as
    new - old >= -1e-10: the two values are close, so the difference is
    exact and consecutive recorded values never differ by less than -1e-10.
    The nominal step is restored after every accepted step.  The gradient at
    u is evaluated once and serves as the first RK4 stage of every attempt
    from u, and each attempt evaluates three stage gradients and, once its
    endpoint is positive, the value there, so an accepted step without
    rejections costs four gradient evaluations.  A start that is not a
    finite positive chart point, a region that does not give one interval
    per chart coordinate, a step that is not finite and > 0, or a max_steps
    that is not an integer >= 0 raises ValueError.
    """
    reduced = chart.reduced
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    # bool is an int subclass, and range() would reject a float with a TypeError
    if isinstance(max_steps, bool) or not isinstance(max_steps, numbers.Integral) or max_steps < 0:
        raise ValueError(f"max_steps must be an integer >= 0, got {max_steps!r}")
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

    times, points, values = [0.0], [tuple(u)], [reduced.eval_float(u)]
    reason = "budget"
    if max_steps:
        # bound after the value kernel, so a coefficient beyond a double
        # raises where the gradient kernel would
        ascent = reduced._compiled(_ascent_template, 1, 0)
        reason = ascent(u, step, max_steps, region, times, points, values)
    return Trajectory(times=times, points=points, values=values, step=step, reason=reason)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    width = len(traj.points[0])
    header = ",".join(["t", *(f"x{i}" for i in range(width)), "value"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in traj.rows():
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
