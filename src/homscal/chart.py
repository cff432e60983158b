"""Unit-volume slice charts: restriction, critical points, classification.

Fixing one summand index e and solving prod x_k^{d_k} = 1 for x_e gives a
global parametrization of the unit-volume slice by the remaining r-1
coordinates.  The restricted scalar curvature stays an exact signomial
because the eliminated coordinate is a pure monomial in the others (with
rational exponents -d_k/d_e).

Critical points of the reduced function are Einstein metrics.  At a critical
point the Hessian spectrum decides between a strict local maximum candidate,
a saddle, and the degenerate case (semidefinite with kernel) that second
order information cannot settle; degenerate points are referred to the probe
module for a third-order verdict.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .signomial import Signomial
from .space import HomogeneousSpace

# |eigenvalue| at most KERNEL_TOL times the Hessian's scale counts as kernel
KERNEL_TOL = 1e-9


class Classification(enum.Enum):
    NOT_CRITICAL = "NotCritical"
    LOCAL_MAX_CANDIDATE = "LocalMaxCandidate"
    SADDLE = "Saddle"
    DEGENERATE = "Degenerate"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SliceChart:
    """Reduced scalar curvature in the r-1 coordinates left after eliminating
    summand `eliminated` against the unit-volume constraint."""

    label: str
    dims: tuple[int, ...]
    eliminated: int
    reduced: Signomial

    @property
    def retained(self) -> tuple[int, ...]:
        return tuple(k for k in range(len(self.dims)) if k != self.eliminated)

    @property
    def arity(self) -> int:
        return self.reduced.arity

    def eliminated_exponents(self) -> tuple[Fraction, ...]:
        """Exponents a_k with x_e = prod over retained k of x_k^{a_k}."""
        de = self.dims[self.eliminated]
        return tuple(Fraction(-self.dims[k], de) for k in self.retained)

    def inflate(self, point: Sequence[float]) -> tuple[float, ...]:
        """Chart point -> full metric point, restoring the eliminated coordinate."""
        if len(point) != self.arity:
            raise ValueError(f"chart point needs {self.arity} coordinates")
        xe = 1.0
        for x, a in zip(point, self.eliminated_exponents()):
            xe *= float(x) ** float(a)
        full = list(float(x) for x in point)
        full.insert(self.eliminated, xe)
        return tuple(full)

    def gradient_values(self, point: Sequence[float]) -> np.ndarray:
        return np.array(self.reduced.gradient_float(point), dtype=float)

    def gradient_scale(self, point: Sequence[float]) -> float:
        """Magnitude reference for deciding that a gradient has cancelled."""
        f = self.reduced
        return math.hypot(*(f.partial(i).eval_abs(point) for i in range(self.arity)))

    def hessian_scale(self, point: Sequence[float]) -> float:
        """Magnitude reference for deciding that a Hessian entry has cancelled."""
        m = self.arity
        parts = [
            self.reduced.derivative((i, j)).eval_abs(point)
            for i in range(m)
            for j in range(i, m)
        ]
        return max(parts, default=0.0)

    def hessian_values(self, point: Sequence[float]) -> np.ndarray:
        m = self.arity
        out = np.zeros((m, m))
        for i in range(m):
            for j in range(i, m):
                out[i, j] = out[j, i] = self.reduced.derivative((i, j)).eval_float(point)
        return out


def restrict(space: HomogeneousSpace, eliminated: int | None = None) -> SliceChart:
    """Restrict the scalar curvature of `space` to the unit-volume slice.

    By default the last summand is eliminated (for the catalog families it
    has d_e = 1, which keeps all exponents integral); any index works, the
    exponents just become rationals.
    """
    r = space.r
    if eliminated is None:
        eliminated = r - 1
    if not 0 <= eliminated < r:
        raise ValueError(f"eliminated index {eliminated} out of range for r = {r}")
    scal = space.scalar_curvature()
    de = space.dims[eliminated]
    repl = {
        k: Fraction(-space.dims[k], de) for k in range(r) if k != eliminated
    }
    reduced = scal.substitute_monomial(eliminated, 1, repl).drop_variable(eliminated)
    return SliceChart(
        label=space.name, dims=space.dims, eliminated=eliminated, reduced=reduced
    )


def jacobi_eigh(matrix: np.ndarray):
    """Eigen-decomposition of a small symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until the largest off-diagonal entry falls below 1e-13 times
    the largest entry of the input, at most 60 sweeps.  Returns (eigenvalues
    ascending, eigenvector columns in matching order).
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.abs(a - a.T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(a).max()):
        raise ValueError("matrix is not symmetric")
    m = a.shape[0]
    v = np.eye(m)
    scale = np.abs(a).max()
    if m == 1 or scale == 0.0:
        order = np.argsort(np.diag(a))
        return np.diag(a)[order], v[:, order]
    threshold = 1e-13 * scale
    for _ in range(60):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                off = max(off, abs(apq))
                if abs(apq) <= threshold:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(m)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off <= threshold:
            break
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


@dataclass(frozen=True)
class CriticalPoint:
    coords: tuple[float, ...]
    grad_norm: float
    label: Classification
    eigenvalues: tuple[float, ...]
    eigenvectors: tuple[tuple[float, ...], ...]  # columns match eigenvalues
    kernel_band: float  # |eigenvalue| at most this counts as kernel

    @classmethod
    def at(
        cls,
        chart: SliceChart,
        point: Sequence[float],
        kernel_tol: float = KERNEL_TOL,
    ) -> "CriticalPoint":
        """Label a chart point from one gradient check and one Hessian spectrum.

        kernel_tol is relative to the larger of the largest |eigenvalue| and
        the cancellation scale of the Hessian entries, so that an all-roundoff
        spectrum is kernel; the point is critical when |grad| is below 1e-8
        times the cancellation scale of the gradient entries.
        DEGENERATE means the Hessian is negative semidefinite with kernel:
        not settled at second order, probe along the kernel.  A point where a
        term overflows a float is a ValueError.
        """
        coords = tuple(float(x) for x in point)
        if not all(0 < x < math.inf for x in coords):
            raise ValueError(f"chart point must be finite and strictly positive, got {coords}")
        try:
            grad_norm = math.hypot(*chart.gradient_values(coords))
            grad_scale = chart.gradient_scale(coords)
            eigvals, eigvecs = jacobi_eigh(chart.hessian_values(coords))
            band = kernel_tol * max(float(np.abs(eigvals).max(initial=0.0)), chart.hessian_scale(coords))
        except OverflowError:
            raise ValueError(f"chart point {coords}: a term overflows a float") from None
        if grad_norm >= 1e-8 * max(grad_scale, 1e-300):
            label = Classification.NOT_CRITICAL
        elif np.all(eigvals < -band):
            label = Classification.LOCAL_MAX_CANDIDATE
        elif np.any(eigvals > band):
            label = Classification.SADDLE
        else:
            label = Classification.DEGENERATE
        return cls(
            coords=coords,
            grad_norm=grad_norm,
            label=label,
            eigenvalues=tuple(float(v) for v in eigvals),
            eigenvectors=tuple(tuple(float(c) for c in row) for row in eigvecs),
            kernel_band=band,
        )

    def kernel(self) -> list[np.ndarray]:
        """Unit eigenvectors with eigenvalue in the band the point was labelled
        with, each with its first nonzero coordinate positive."""
        out = []
        for lam, vec in zip(self.eigenvalues, np.array(self.eigenvectors).T):
            if abs(lam) <= self.kernel_band:
                unit = vec / np.linalg.norm(vec)
                lead = next((c for c in unit if abs(c) > 1e-12), 1.0)
                out.append(unit if lead > 0 else -unit)
        return out


def _newton_step(chart: SliceChart, u: np.ndarray, grad: np.ndarray, gnorm: float):
    """One damped Newton step from u, whose gradient grad and norm gnorm the
    caller holds: (trial, its gradient, its norm), or None when no step is possible.

    The step is halved until the iterate is strictly positive and the
    gradient norm decreases; without the second condition the near-singular
    Hessian at a degenerate point throws iterates out of the basin.
    """
    hess = chart.hessian_values(u)
    try:
        delta = np.linalg.solve(hess, -grad)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        delta = np.linalg.lstsq(hess, -grad, rcond=None)[0]
    if not np.all(np.isfinite(delta)) or not delta.any():
        return None
    damp, here, last = 1.0, u.tolist(), None  # lists compare faster than small arrays
    for _ in range(60):
        trial = u + damp * delta
        point = trial.tolist()
        if point == here:
            break  # every shorter step rounds to u as well
        # a trial that rounds to the last one was already rejected
        if point != last and min(point) > 0:
            tgrad = chart.gradient_values(trial)
            tnorm = float(np.linalg.norm(tgrad))
            if math.isfinite(tnorm) and tnorm < gnorm:
                return trial, tgrad, tnorm
        damp, last = damp * 0.5, point
    return None


def _try_exact_snap(chart: SliceChart, u: np.ndarray) -> "np.ndarray | None":
    """Round to a nearby simple rational point and keep it only if the exact
    gradient vanishes there.

    A converged float iterate near a degenerate critical point still carries
    an offset ~sqrt(eps) along the kernel direction, because the gradient is
    quadratic in that offset.  When the true critical point has simple
    rational coordinates (the all-ones metrics of the catalog), exact
    verification recovers it precisely.
    """
    try:
        snapped = [Fraction(float(x)).limit_denominator(1000) for x in u]
        if any(s <= 0 for s in snapped):
            return None
        if max(abs(float(s) - float(x)) for s, x in zip(snapped, u)) > 1e-6:
            return None
        for i in range(chart.arity):
            if chart.reduced.partial(i).eval_exact(snapped) != 0:
                return None
    except ArithmeticError:
        return None
    return np.array([float(s) for s in snapped])


def _newton_converge(chart: SliceChart, u: np.ndarray) -> "np.ndarray | None":
    """Newton steps until the gradient norm is below 1e-12, at most 100, then
    polish steps while the norm keeps falling; None if the iteration fails.
    Each iterate carries its gradient from the step that accepted it."""
    grad = chart.gradient_values(u)
    if not np.all(np.isfinite(grad)):
        return None
    gnorm = float(np.linalg.norm(grad))
    for _ in range(100):
        if gnorm < 1e-12:
            break
        step = _newton_step(chart, u, grad, gnorm)
        if step is None:
            return None
        u, grad, gnorm = step
    else:
        return None
    for _ in range(12):
        step = _newton_step(chart, u, grad, gnorm)
        if step is None:
            break
        u, grad, gnorm = step
    return u


def newton_critical(chart: SliceChart, start: Sequence[float]) -> "np.ndarray | None":
    """Damped Newton iteration on the reduced gradient: the converged chart
    point, snapped to a nearby simple rational point where the exact gradient
    vanishes, or None if the iteration fails.  The point is not labelled.

    Steps solve H delta = -grad (minimum-norm least squares when the Hessian
    is singular) and are halved until the iterate stays strictly positive.
    Once the gradient norm drops below 1e-12 (within 100 steps), a few polish
    steps follow; along a degenerate direction the gradient is cubic in the
    offset, so polishing sharpens coordinates well past the first iterate
    that converges.  The gradient is evaluated once per point: at the start
    and at each damping trial that rounds to a new point; an accepted trial
    keeps its gradient as the next iterate's.
    A start whose iterates overflow a float in a term has failed; a gradient
    norm that overflows is inf, which the step damping already treats as no
    progress.
    """
    u = np.array([float(x) for x in start], dtype=float)
    if len(u) != chart.arity or not np.all((u > 0) & np.isfinite(u)):
        raise ValueError("start must be a finite, strictly positive chart point")
    try:
        with np.errstate(over="ignore"):
            u = _newton_converge(chart, u)
    except OverflowError:
        return None
    if u is None:
        return None
    snapped = _try_exact_snap(chart, u)
    return u if snapped is None else snapped


def find_critical_points(
    chart: SliceChart, per_axis: int = 5, kernel_tol: float = KERNEL_TOL
) -> list[CriticalPoint]:
    """Multi-start Newton from a logarithmic grid of per_axis points per axis
    on [0.25, 4]; each distinct point labelled once, results sorted.

    A converged point within 1e-8 of a point already kept is skipped before
    it is labelled.  Points labelled NotCritical are dropped: they arise
    when the iteration stalls in the far field where every term of the
    reduced function (and so the absolute gradient norm) decays below 1e-12
    without an actual zero.
    """
    axis = np.exp(np.linspace(math.log(0.25), math.log(4.0), per_axis))
    found: list[CriticalPoint] = []
    for start in itertools.product(axis, repeat=chart.arity):
        u = newton_critical(chart, start)
        if u is None or any(np.linalg.norm(u - np.array(f.coords)) < 1e-8 for f in found):
            continue
        cp = CriticalPoint.at(chart, u, kernel_tol=kernel_tol)
        if cp.label is not Classification.NOT_CRITICAL:
            found.append(cp)
    return sorted(found, key=lambda cp: cp.coords)
