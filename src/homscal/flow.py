"""Gradient ascent of the reduced scalar curvature on a slice chart.

Classical fixed-step fourth-order (RK4) integration of u' = grad f(u) in
chart coordinates.  The value of f is nondecreasing along exact solutions,
and the integrator enforces that property per step up to a small tolerance;
the module's claims are monotonicity and escape from degenerate critical
points, nothing more.  The gradient at each accepted point comes from the
chart's own float evaluator, Signomial.partials_float(u, 1) on
chart.reduced.  Each RK4 attempt from u runs as one generated function per
chart: its three stage points, their positivity checks and gradients, the
endpoint and the endpoint's value, written out with the statements of the
signomial kernels (signomial._partial_sums) and run with the constants of
the chart's memoized gradient and value kernels.  Its code is cached per
shape, like the kernels'.  Each coordinate is formed in the operation order
of the array expression (u + 0.5*h*k and so on), so the integrator takes
the same doubles an ndarray RK4 would, and every recorded value equals
chart.reduced.eval_float at the recorded point.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass
from typing import Sequence

from .chart import SliceChart, vector_norm
from .signomial import Signomial, _define, _partial_sums, _shape


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
def _rk4_template(arity: int, gradient_shape: tuple, value_shape: tuple):
    """Compile one RK4 attempt for charts of one shape (see signomial._shape):
    (u, k1, h, constants) -> (endpoint, value there), or None when a stage
    point or the endpoint is not positive.

    The constants are the gradient kernel's (k0, k1, ...), then the value
    kernel's (m0, m1, ...).  Each coordinate is formed in the operation
    order of the array expressions u + half*k, u + h*k and
    u + sixth*(k1 + 2*k2 + 2*k3 + k4), and the three stage gradients and the
    endpoint's value are written out with the kernels' own term statements,
    so every double is the one the kernels would return.
    """

    def point(name: str, increment: str) -> list[str]:
        # u{i} + increment with {i} filled in, then the positivity check
        positive = " or ".join(f"{name}{i} <= 0" for i in range(arity)) or "False"
        return [
            *(f"    {name}{i} = u{i} + {increment.format(i=i)}" for i in range(arity)),
            f"    if {positive}:",
            "        return None",
        ]

    def coords(name: str) -> str:
        return ", ".join(f"{name}{i}" for i in range(arity))

    lines = [f"    [{coords('u')}] = u", f"    [{coords('a')}] = g", "    half = 0.5 * h"]
    for name, increment, slope in (("p", "half * a{i}", "b"), ("q", "half * b{i}", "c"),
                                   ("r", "h * c{i}", "d")):
        gradient, k_count = _partial_sums(gradient_shape, slope, name, "k")
        lines += point(name, increment) + gradient
    lines.append("    sixth = h / 6.0")
    lines += point("x", "sixth * (a{i} + 2 * b{i} + 2 * c{i} + d{i})")
    value, m_count = _partial_sums(value_shape, "v", "x", "m")
    lines += [*value, f"    return [{coords('x')}], v0"]
    params = "".join(f", k{n}" for n in range(k_count)) + "".join(f", m{n}" for n in range(m_count))
    return _define("rk4", f"u, g, h{params}", lines, f"<rk4 attempt, arity {arity}>")


def _gradient_small(g: list[float]) -> bool:
    """vector_norm(g) < 1e-10, the stop test.  math.hypot(g) is within a few
    ulps of numpy's sqrt(dot(g, g)), so it decides alone outside +-0.1% of
    the threshold, and numpy decides inside that band, where the two norms
    may fall on either side of it."""
    norm = math.hypot(*g)
    return (vector_norm(g) if 0.999e-10 <= norm <= 1.001e-10 else norm) < 1e-10


def _rk4_attempt(reduced: Signomial):
    """The compiled RK4 attempt of one reduced function: the template of its
    gradient's and value's shapes, with the constants of its memoized
    gradient and value kernels as the defaults after (u, k1, h)."""
    gradient, value = reduced._kernel(1, False), reduced._kernel(0, False)
    template = _rk4_template(
        reduced.arity,
        _shape(reduced.partial(i) for i in range(reduced.arity)),
        _shape([reduced]),
    )
    return types.FunctionType(
        template.__code__, template.__globals__, "rk4",
        gradient.__defaults__ + value.__defaults__,
    )


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
    from u, and each attempt evaluates three stage gradients and, once its
    endpoint is positive, the value there, so an accepted step without
    rejections costs four gradient evaluations.  The stop test has the
    decisions of np.linalg.norm(g) < 1e-10 (see _gradient_small).  A start that is not a finite positive chart point, a
    region that does not give one interval per chart coordinate, or a step
    that is not finite and > 0 raises ValueError.
    """
    reduced = chart.reduced
    f, partials = reduced.eval_float, reduced.partials_float
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
    # built after the value kernel and only when a step is taken, so a
    # coefficient beyond a double raises where the gradient kernel would
    rk4 = _rk4_attempt(reduced) if max_steps > 0 else None

    reason = "budget"
    for _ in range(max_steps):
        g = partials(u, 1)
        if _gradient_small(g):
            reason = "gradient-small"
            break
        h = step
        for _rej in range(20):
            attempt = rk4(u, g, h)
            if attempt is not None:
                nxt, new_val = attempt
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
    header = ",".join(["t", *(f"x{i}" for i in range(width)), "value"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in traj.rows():
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
