"""Unit-volume slice charts: restriction, critical points, classification.

Fixing one summand index e and solving prod x_k^{d_k} = 1 for x_e gives a
global parametrization of the unit-volume slice by the remaining r-1
coordinates: x_e = prod x_k^{-d_k/d_e} over the retained k, exponents that
elimination_exponents alone computes.  The restricted scalar curvature stays
an exact signomial: in one pass over the terms of scal, a power x_e^p adds
p * (-d_k/d_e) to the exponent of each retained x_k, and the indices above e
shift down by one.

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
    def arity(self) -> int:
        return self.reduced.arity

    def inflate(self, point: Sequence[float]) -> tuple[float, ...]:
        """Chart point -> full metric point, restoring the eliminated coordinate."""
        if len(point) != self.arity:
            raise ValueError(f"chart point needs {self.arity} coordinates")
        xe = 1.0
        for x, a in zip(point, elimination_exponents(self.dims, self.eliminated)):
            xe *= float(x) ** float(a)
        full = list(float(x) for x in point)
        full.insert(self.eliminated, xe)
        return tuple(full)


def elimination_exponents(dims: Sequence[int], eliminated: int) -> tuple[Fraction, ...]:
    """Exponents a_k = -d_k/d_e with x_e = prod over retained k of x_k^{a_k}
    on the unit-volume slice, in the order of the retained indices."""
    de = dims[eliminated]
    return tuple(Fraction(-d, de) for k, d in enumerate(dims) if k != eliminated)


def restrict(space: HomogeneousSpace, eliminated: int | None = None) -> SliceChart:
    """Restrict the scalar curvature of `space` to the unit-volume slice.

    By default the last summand is eliminated (for the catalog families it
    has d_e = 1, which keeps all exponents integral); any index works, the
    exponents just become rationals.  The reduced terms are scal's, in its
    order: scal is homogeneous, so no two of its terms meet on the slice.
    """
    r = space.r
    if eliminated is None:
        eliminated = r - 1
    if not 0 <= eliminated < r:
        raise ValueError(f"eliminated index {eliminated} out of range for r = {r}")
    a = elimination_exponents(space.dims, eliminated)
    pairs = []
    for mono, c in space.scalar_curvature().terms.items():
        p = mono.exponent(eliminated)
        exps = [p * ak for ak in a]
        for k, e in mono.exps:
            if k != eliminated:
                exps[k - (k > eliminated)] += e
        pairs.append((c, dict(enumerate(exps))))
    reduced = Signomial.from_terms(r - 1, pairs)
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
    scale = np.abs(a).max(initial=0.0)
    if np.abs(a - a.T).max(initial=0.0) > 1e-12 * max(1.0, scale):
        raise ValueError("matrix is not symmetric")
    m = a.shape[0]
    v = np.eye(m)
    if m <= 1 or scale == 0.0:
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
        term overflows a float, or where overflowing terms cancel to a NaN
        gradient or Hessian entry, is a ValueError.
        """
        coords = tuple(float(x) for x in point)
        if not all(0 < x < math.inf for x in coords):
            raise ValueError(f"chart point must be finite and strictly positive, got {coords}")
        f, m = chart.reduced, chart.arity
        try:
            grad = f.partials_float(coords, 1)
            hess = f.hessian_float(coords)
            # terms that overflow to +-inf and cancel leave a NaN partial
            if any(map(math.isnan, grad)) or any(math.isnan(h) for row in hess for h in row):
                raise OverflowError
            grad_norm = math.hypot(*grad)
            grad_scale = math.hypot(*f.partials_float(coords, 1, absolute=True))
            eigvals, eigvecs = jacobi_eigh(np.array(hess, dtype=float).reshape(m, m))
            hess_scale = max(f.partials_float(coords, 2, absolute=True), default=0.0)
            band = kernel_tol * max(float(np.abs(eigvals).max(initial=0.0)), hess_scale)
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


def vector_norm(v: list[float]) -> float:
    """Euclidean norm with the bits of np.linalg.norm: sqrt(v0 * v0) for one
    entry, which like numpy's sqrt(dot(v, v)) overflows to inf and underflows
    to 0; longer vectors go to numpy, whose BLAS sums plain floats cannot match."""
    if len(v) == 1:
        return math.sqrt(v[0] * v[0])
    return float(np.linalg.norm(v))


def _newton_direction(hess: list[list[float]], grad: list[float]) -> list[float]:
    """delta solving H delta = -grad, with the bits of np.linalg.solve.

    A 1x1 system with a finite nonzero h whose quotient is finite is the
    division -g / h; every other system goes to LAPACK's solve, and when
    that reports singularity or returns a non-finite entry, to the
    minimum-norm least-squares solution.
    """
    if len(grad) == 1:
        h, g = hess[0][0], grad[0]
        if h != 0 and math.isfinite(h):
            d = -g / h
            if math.isfinite(d):
                return [d]
    m = len(grad)
    a, b = np.array(hess, dtype=float).reshape(m, m), -np.array(grad, dtype=float)
    try:
        delta = np.linalg.solve(a, b)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        delta = np.linalg.lstsq(a, b, rcond=None)[0]
    return delta.tolist()


def _newton_step(chart: SliceChart, u: list[float], grad: list[float], gnorm: float):
    """One damped Newton step from u, whose gradient grad and norm gnorm the
    caller holds: (trial, its gradient, its norm), or None when no step is possible.

    Points, gradients and the direction are lists of floats; each trial
    coordinate is x + damp * d, the operation order of the array expression
    u + damp * delta.  The step is halved until the iterate is strictly
    positive and the gradient norm decreases; without the second condition
    the near-singular Hessian at a degenerate point throws iterates out of
    the basin.
    """
    f = chart.reduced
    delta = _newton_direction(f.hessian_float(u), grad)
    if not all(math.isfinite(d) for d in delta) or not any(delta):
        return None
    damp, last = 1.0, None
    for _ in range(60):
        trial = [x + damp * d for x, d in zip(u, delta)]
        if trial == u:
            break  # every shorter step rounds to u as well
        # a trial that rounds to the last one was already rejected
        if trial != last and min(trial) > 0:
            tgrad = f.partials_float(trial, 1)
            tnorm = vector_norm(tgrad)
            if math.isfinite(tnorm) and tnorm < gnorm:
                return trial, tgrad, tnorm
        damp, last = damp * 0.5, trial
    return None


def exact_snap(chart: SliceChart, u: Sequence[float]) -> "tuple[Fraction, ...] | None":
    """Round to a nearby simple rational point and return it, as Fractions,
    only if the exact gradient vanishes there; None otherwise.

    A converged float iterate near a degenerate critical point still carries
    an offset ~sqrt(eps) along the kernel direction, because the gradient is
    quadratic in that offset.  When the true critical point has simple
    rational coordinates (the all-ones metrics of the catalog), exact
    verification recovers it precisely.
    """
    try:
        snapped = tuple(Fraction(float(x)).limit_denominator(1000) for x in u)
        if any(s <= 0 for s in snapped):
            return None
        if max((abs(float(s) - float(x)) for s, x in zip(snapped, u)), default=0.0) > 1e-6:
            return None
        for i in range(chart.arity):
            if chart.reduced.partial(i).eval_exact(snapped) != 0:
                return None
    except ArithmeticError:
        return None
    return snapped


def _newton_converge(chart: SliceChart, u: list[float]) -> "list[float] | None":
    """Newton steps until the gradient norm is below 1e-12, at most 100, then
    polish steps while the norm keeps falling; None if the iteration fails.
    Each iterate carries its gradient from the step that accepted it."""
    grad = chart.reduced.partials_float(u, 1)
    if not all(math.isfinite(g) for g in grad):
        return None
    gnorm = vector_norm(grad)
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
    The iteration runs on lists of floats with Signomial.partials_float(u, 1)
    and Signomial.hessian_float; numpy serves only the solve and the norm with
    two or more unknowns, where plain floats cannot reproduce LAPACK's bits,
    and a 1x1 solve that the division -g / h cannot settle.  Every iterate has
    the bits of the ndarray iteration.
    A start whose iterates overflow a float in a term has failed; a gradient
    norm that overflows is inf, which the step damping already treats as no
    progress.
    """
    u = [float(x) for x in start]
    if len(u) != chart.arity or not all(0 < x < math.inf for x in u):
        raise ValueError("start must be a finite, strictly positive chart point")
    try:
        with np.errstate(over="ignore"):
            u = _newton_converge(chart, u)
    except OverflowError:
        return None
    if u is None:
        return None
    snapped = exact_snap(chart, u)
    return np.array(u) if snapped is None else np.array([float(s) for s in snapped])


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
