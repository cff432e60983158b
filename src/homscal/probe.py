"""Third-order probes along straight lines in chart coordinates.

Every curve used to disqualify a degenerate critical point is linear in the
chart coordinates, u(t) = u0 + t v, so the derivatives of f(u(t)) at t = 0
are plain multilinear contractions of exact partial derivatives:

    S1 = sum_i f_i v_i,   S2 = sum_ij f_ij v_i v_j,   S3 = sum_ijk f_ijk v_i v_j v_k.

S1 = S2 = 0 with S3 != 0 certifies an inflection: the point is not a local
maximum (nor minimum) of f along the curve, and a concrete witness point
with a larger value exists on the S3 side.

Contractions are evaluated exactly (Fractions) whenever the base point,
direction and all powered coordinates are rational, e.g. at an all-ones
point; otherwise in floating point.  A central-difference oracle (fd_check)
is provided to cross-examine the contraction path.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .chart import SliceChart
from .signomial import ExactEvaluationError, Signomial

# float-mode verdict thresholds, relative to max(|S3|, largest third partial):
# |S1|, |S2| below TOL_LOW count as zero, |S3| or -S2 above TOL_HIGH as signal
TOL_LOW = 1e-8
TOL_HIGH = 1e-6


class Verdict(enum.Enum):
    NOT_LOCAL_MAX = "NotLocalMax"
    STRICT_DESCENT = "StrictDescent"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


class ProbeInconsistency(RuntimeError):
    """A witness search contradicted the verdict that requested it."""


@dataclass(frozen=True)
class CurveSpec:
    """The line u(t) = base + t * direction in chart coordinates."""

    base: tuple
    direction: tuple

    def __post_init__(self):
        base = tuple(self.base)
        direction = tuple(self.direction)
        if len(base) != len(direction):
            raise ValueError("base and direction must have the same length")
        if not base:
            raise ValueError("empty curve")
        if not all(math.isfinite(float(c)) for c in base + direction):
            raise ValueError(f"curve coordinates must be finite, got {base}, {direction}")
        if any(float(x) <= 0 for x in base):
            raise ValueError(f"base point must be strictly positive, got {base}")
        if all(float(c) == 0 for c in direction):
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "direction", direction)

    def at(self, t: float) -> tuple[float, ...]:
        return tuple(float(b) + t * float(c) for b, c in zip(self.base, self.direction))


@dataclass(frozen=True)
class ProbeResult:
    """Directional derivatives (S1, S2, S3) along a curve, plus context.

    scales holds the same contractions with every factor replaced by its
    absolute value: the natural magnitude against which a vanishing S is
    judged.  third_partial_max is the largest |f_ijk| at the base point
    (in exact mode the exact value, correctly rounded).
    """

    s1: "Fraction | float"
    s2: "Fraction | float"
    s3: "Fraction | float"
    mode: str
    scales: tuple[float, float, float]
    third_partial_max: float
    verdict: Verdict | None = None

    def relative(self) -> tuple[float, float, float]:
        """|S_m| over its cancellation scale (0 when the scale vanishes)."""
        out = []
        for v, s in zip((self.s1, self.s2, self.s3), self.scales):
            out.append(abs(float(v)) / s if s > 0 else 0.0)
        return tuple(out)


def _multinomial(counts: dict[int, int]) -> int:
    total = sum(counts.values())
    out = math.factorial(total)
    for c in counts.values():
        out //= math.factorial(c)
    return out


def _is_rational_tuple(values: Sequence) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _contract(
    f: Signomial,
    order: int,
    point: Sequence,
    direction: Sequence,
    exact: bool,
):
    """Contraction of the order-th derivative tensor with direction^order, its
    absolute-value counterpart (always float) and the largest |partial| it
    evaluated (float, correctly rounded from the exact value)."""
    fpoint = [float(x) for x in point]
    if exact:
        num, evaluate, at = Fraction, Signomial.eval_exact, point
    else:
        num, evaluate, at = float, Signomial.eval_float, fpoint
    total = num(0)
    total_abs = 0.0
    peak = num(0)
    for alpha in itertools.combinations_with_replacement(range(len(point)), order):
        counts: dict[int, int] = {}
        for i in alpha:
            counts[i] = counts.get(i, 0) + 1
        mult = _multinomial(counts)
        part = f.derivative(alpha)
        value = evaluate(part, at)
        peak = max(peak, abs(value))
        dirprod = num(1)
        for i, c in counts.items():
            dirprod *= num(direction[i]) ** c
        total += mult * value * dirprod
        absdir = 1.0
        for i, c in counts.items():
            absdir *= abs(float(direction[i])) ** c
        total_abs += mult * part.eval_abs(fpoint) * absdir
    return total, total_abs, float(peak)


def directional_derivatives(
    chart: SliceChart,
    curve: CurveSpec,
    mode: str = "auto",
) -> ProbeResult:
    """(S1, S2, S3) of the reduced function along the curve, without a verdict.

    mode "exact" insists on rational arithmetic (raising ExactEvaluationError
    if an irrational power appears), "float" forces doubles, and "auto" takes
    the exact path when the base point and direction are rationals, falling
    back to floats otherwise.  The curve must stay positive for |t| <= 1e-2.
    """
    if len(curve.base) != chart.arity:
        raise ValueError(f"curve lives in {len(curve.base)} variables, chart in {chart.arity}")
    for t in (1e-2, -1e-2):
        if any(x <= 0 for x in curve.at(t)):
            raise ValueError("curve leaves the positive orthant within |t| <= 0.01")
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    rational_curve = _is_rational_tuple(curve.base) and _is_rational_tuple(
        curve.direction
    )
    if mode == "exact" and not rational_curve:
        # exact arithmetic at a float-rounded point would be precision theater
        raise ExactEvaluationError(
            "exact mode needs int/Fraction base and direction coordinates"
        )
    exact = mode == "exact" or (mode == "auto" and rational_curve)
    contract = lambda exact: [
        _contract(chart.reduced, order, curve.base, curve.direction, exact)
        for order in (1, 2, 3)
    ]
    try:
        parts = contract(exact)
    except ExactEvaluationError:
        if mode == "exact":
            raise
        exact = False
        parts = contract(exact)
    (s1, a1, _), (s2, a2, _), (s3, a3, third_max) = parts
    return ProbeResult(
        s1=s1,
        s2=s2,
        s3=s3,
        mode="exact" if exact else "float",
        scales=(a1, a2, a3),
        third_partial_max=third_max,
    )


def inflection_verdict(
    result: ProbeResult, tol_low: float = TOL_LOW, tol_high: float = TOL_HIGH
) -> Verdict:
    """Decide what (S1, S2, S3) say about local maximality along the curve.

    In exact mode the tolerances collapse to exact zero tests.  In float mode
    magnitudes are measured against max(|S3|, largest third partial), so that
    numerical noise in a cancelling S1 or S2 is not mistaken for signal.
    """
    s1, s2, s3 = result.s1, result.s2, result.s3
    if result.mode == "exact":
        if s1 == 0 and s2 == 0 and s3 != 0:
            return Verdict.NOT_LOCAL_MAX
        if s1 == 0 and s2 < 0:
            return Verdict.STRICT_DESCENT
        return Verdict.INCONCLUSIVE
    scale = max(abs(float(s3)), result.third_partial_max)
    small1 = abs(float(s1)) < tol_low * scale
    small2 = abs(float(s2)) < tol_low * scale
    if small1 and small2 and abs(float(s3)) > tol_high * scale:
        return Verdict.NOT_LOCAL_MAX
    if small1 and float(s2) < -tol_high * scale:
        return Verdict.STRICT_DESCENT
    return Verdict.INCONCLUSIVE


def probe_chart(
    chart: SliceChart,
    curve: CurveSpec,
    mode: str = "auto",
    tol_low: float = TOL_LOW,
    tol_high: float = TOL_HIGH,
) -> ProbeResult:
    """directional_derivatives plus the verdict, in one call."""
    result = directional_derivatives(chart, curve, mode=mode)
    return replace(result, verdict=inflection_verdict(result, tol_low, tol_high))


def fd_check(
    chart: SliceChart, curve: CurveSpec, h: float = 1e-3, order: int = 3
) -> tuple[float, ...]:
    """Central-difference estimates of (S1, ..., S_order), order <= 3.

    Entirely independent of the contraction path: only float evaluations of
    the reduced function along the curve.
    """
    if not 1 <= order <= 3:
        raise ValueError("order must be 1, 2 or 3")
    for t in (3 * h, -3 * h):
        if any(x <= 0 for x in curve.at(t)):
            raise ValueError(f"curve leaves the positive orthant within |t| <= {3 * h}")
    f = lambda t: chart.reduced.eval_float(curve.at(t))
    out = [(f(h) - f(-h)) / (2 * h)]
    if order >= 2:
        out.append((f(h) - 2 * f(0.0) + f(-h)) / (h * h))
    if order >= 3:
        out.append((f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h ** 3))
    return tuple(out)


def suggest_fd_step(chart: SliceChart, curve: CurveSpec) -> float:
    """Step size balancing truncation against roundoff for fd_check's S3.

    The error model is |S5| h^2 / 4 + eps |f| / h^3, minimized at
    h = (6 eps |f| / |S5|)^(1/5), with |S5| estimated by the absolute-value
    contraction of the exact fifth derivative tensor.  That contraction
    ignores sign cancellation and so overstates the truncation term; the
    optimum is shifted up by 4x to compensate (calibrated on the catalog
    curves) and clamped to [1e-4, 1e-3] divided by the direction's
    max-norm, since halving the direction doubles the useful step.
    """
    f_abs = chart.reduced.eval_abs(curve.base)
    _, s5_abs, _ = _contract(chart.reduced, 5, curve.base, curve.direction, exact=False)
    vmax = max(abs(float(c)) for c in curve.direction)
    if s5_abs == 0.0 or f_abs == 0.0:
        return 1e-3 / vmax
    eps = 2.2e-16
    h = 4.0 * (6.0 * eps * f_abs / s5_abs) ** 0.2
    return min(1e-3 / vmax, max(1e-4 / vmax, h))


def fd_check_auto(chart: SliceChart, curve: CurveSpec) -> tuple[float, float, float]:
    """fd_check with an internally chosen step size.

    Climbs a geometric ladder of candidate steps starting at the error-model
    optimum and keeps the rung where consecutive S3 estimates agree best;
    their gap tracks the actual error, so the pick lands between the
    roundoff-dominated and truncation-dominated regimes whatever the amount
    of sign cancellation in the derivative tensors.  S1 and S2 prefer a
    smaller step (their truncation grows from higher odd/even derivatives
    while their roundoff divides by h, not h^3) and are sampled at a quarter
    of the chosen rung.  Everything here uses only float evaluations of the
    reduced function, independent of the contraction path.
    """
    vmax = max(abs(float(c)) for c in curve.direction)
    base = suggest_fd_step(chart, curve) / 4.0  # raw model optimum
    # the curve must stay positive on [-3h, 3h]
    h_cap = 2e-2 / vmax
    for b, v in zip(curve.base, curve.direction):
        if float(v) != 0.0:
            h_cap = min(h_cap, 0.3 * float(b) / abs(float(v)))
    h0 = min(base, h_cap / 2)
    rungs = [(h0, fd_check(chart, curve, h=h0))]
    h = h0
    for _ in range(9):
        if 2 * h > h_cap:
            break
        h *= 2
        rungs.append((h, fd_check(chart, curve, h=h)))
    if len(rungs) == 1:
        s1, s2 = fd_check(chart, curve, h=h0 / 4, order=2)
        return s1, s2, rungs[0][1][2]
    gaps = [abs(rungs[k + 1][1][2] - rungs[k][1][2]) for k in range(len(rungs) - 1)]
    k = min(range(len(gaps)), key=gaps.__getitem__)
    # below the best pair the estimates are roundoff-noisy, above they drift
    # with truncation; inside the pair, prefer the member away from the
    # noisier side (the small-h side when the pair sits at the ladder start)
    pick = k + 1 if k == 0 else k
    h_pick, values = rungs[pick]
    s1, s2 = fd_check(chart, curve, h=h_pick / 4, order=2)
    return s1, s2, values[2]


def improving_offset(
    chart: SliceChart,
    curve: CurveSpec,
    s3: "Fraction | float",
) -> tuple[float, ...]:
    """A nearby point with a strictly larger value, witnessing NotLocalMax.

    Steps to base + sign(S3) * t * direction for t = 1e-2 and up to 20
    halvings of it until the value exceeds the base value (the cubic term
    dominates for small offsets).  Raises ProbeInconsistency if no offset
    works, which would contradict a NotLocalMax verdict.
    """
    if float(s3) == 0.0:
        raise ValueError("S3 must be nonzero to pick a side")
    sign = 1.0 if float(s3) > 0 else -1.0
    base_value = chart.reduced.eval_float([float(x) for x in curve.base])
    step = 1e-2
    for _ in range(21):
        witness = curve.at(sign * step)
        if all(x > 0 for x in witness):
            if chart.reduced.eval_float(witness) > base_value:
                return witness
        step *= 0.5
    raise ProbeInconsistency(
        f"no improving offset within 0.01 of the base point; S3 = {s3}"
    )
