"""Unit-volume slice charts: restriction, critical points, classification.

Fixing one summand index e and solving prod x_k^{d_k} = 1 for x_e gives a
global parametrization of the unit-volume slice by the remaining r-1
coordinates: x_e = prod x_k^{-d_k/d_e} over the retained k, exponents that
elimination_exponents alone computes.  The restricted scalar curvature stays
an exact signomial: in one pass over the terms of scal, a power x_e^p adds
p * (-d_k/d_e) to the exponent of each retained x_k, and the indices above e
shift down by one.

Critical points of the reduced function are Einstein metrics.  The
multi-start Newton search finds them; each damped Newton step runs as one
generated function with the kernels' term statements, bound once per chart
by Signomial._compiled.  At a critical point the Hessian spectrum decides
between a strict local maximum candidate, a saddle, and the degenerate case
(semidefinite with kernel) that second order information cannot settle;
degenerate points are referred to the probe module for a third-order
verdict.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .signomial import Signomial, _define, _names, _partial_sums
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
    ascending, eigenvector columns in matching order).  A matrix that is not
    square, not finite or not symmetric is a ValueError.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has a non-finite entry")
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
        term overflows a float, or where a gradient or Hessian entry is not
        finite (a sum that overflows, or overflowing terms that cancel to a
        NaN), is a ValueError.
        """
        coords = tuple(float(x) for x in point)
        if not all(0 < x < math.inf for x in coords):
            raise ValueError(f"chart point must be finite and strictly positive, got {coords}")
        f, m = chart.reduced, chart.arity
        try:
            grad = f.partials_float(coords, 1)
            hess = f.hessian_float(coords)
            # an overflowing sum is +-inf; overflowing terms that cancel, NaN
            if not all(map(math.isfinite, grad + [h for row in hess for h in row])):
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


@functools.lru_cache(maxsize=256)
def _newton_template(arity: int, hessian_shape: tuple, gradient_shape: tuple):
    """Compile one damped Newton step for charts of one shape (see
    signomial._shape): (u, g, gnorm, constants) -> (trial, its gradient,
    its norm), or None when no step is possible.  Bound per chart by
    Signomial._compiled(_newton_template, 2, 1).

    u is the iterate as a list, g its gradient and gnorm that gradient's
    norm.  The constants are the Hessian kernel's, then the gradient
    kernel's.  The Hessian at u and each trial's gradient are written out
    with the kernels' own term statements, so every double is the one the
    kernels would return; the direction is _newton_direction's and the norm
    has the bits of vector_norm.  Each trial coordinate is x + damp * d, the
    operation order of the array expression u + damp * delta.  The step is
    halved until the trial is strictly positive and its gradient norm is
    below gnorm; without the second condition the near-singular Hessian at a
    degenerate point throws iterates out of the basin.
    """
    upper = {}
    for n, (i, j) in enumerate(itertools.combinations_with_replacement(range(arity), 2)):
        upper[i, j] = upper[j, i] = n
    matrix = ", ".join(f"[{', '.join(f'h{upper[i, j]}' for j in range(arity))}]" for i in range(arity))
    finite = " and ".join(f"isfinite(d{i})" for i in range(arity)) or "True"
    nonzero = " or ".join(f"d{i}" for i in range(arity)) or "False"
    hessian, count = _partial_sums(hessian_shape, "h", "u")
    gradient, count = _partial_sums(gradient_shape, "t", "p", count)
    norm = "sqrt(t0 * t0)" if arity == 1 else f"vector_norm([{_names('t', arity)}])"
    lines = [
        f"    [{_names('u', arity)}] = u",
        *hessian,
        f"    [{_names('d', arity)}] = _newton_direction([{matrix}], g)",
        f"    if not ({finite}) or not ({nonzero}):",
        "        return None",
        "    damp, last = 1.0, None",
        "    for _ in range(60):",
        f"        trial = [{', '.join(f'u{i} + damp * d{i}' for i in range(arity))}]",
        "        if trial == u:",
        "            break  # every shorter step rounds to u as well",
        "        # a trial that rounds to the last one was already rejected",
        "        if trial != last and min(trial) > 0:",
        f"            [{_names('p', arity)}] = trial",
        *(f"        {line}" for line in gradient),
        f"            tnorm = {norm}",
        "            if isfinite(tnorm) and tnorm < gnorm:",
        f"                return trial, [{_names('t', arity)}], tnorm",
        "        damp, last = damp * 0.5, trial",
        "    return None",
    ]
    names = {"_newton_direction": _newton_direction, "isfinite": math.isfinite,
             "sqrt": math.sqrt, "vector_norm": vector_norm}
    return _define("newton_step", "u, g, gnorm", count, lines,
                   f"<newton step, arity {arity}>", names)


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
    Each iterate carries its gradient from the step that accepted it.

    The chart's bound step is fetched before the iteration, so a
    coefficient beyond the range of a double raises OverflowError naming
    its partial; an iterate at which a term overflows a float fails the
    start.
    """
    reduced = chart.reduced
    step = reduced._compiled(_newton_template, 2, 1)
    try:
        grad = reduced.partials_float(u, 1)
        if not all(math.isfinite(g) for g in grad):
            return None
        gnorm = vector_norm(grad)
        for _ in range(100):
            if gnorm < 1e-12:
                break
            taken = step(u, grad, gnorm)
            if taken is None:
                return None
            u, grad, gnorm = taken
        else:
            return None
        for _ in range(12):
            taken = step(u, grad, gnorm)
            if taken is None:
                break
            u, grad, gnorm = taken
    except OverflowError:
        return None
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
    The iteration runs on lists of floats.  The start's gradient comes from
    Signomial.partials_float(u, 1); each step, its Hessian and its trials'
    gradients run as one generated function with the kernels' term
    statements, bound once per chart (Signomial._compiled).
    numpy serves only the solve and the norm with two or more unknowns, where
    plain floats cannot reproduce LAPACK's bits, and a 1x1 solve that the
    division -g / h cannot settle.  Every iterate has the bits of the ndarray
    iteration.
    A start whose iterates overflow a float in a term has failed; a gradient
    norm that overflows is inf, which the step damping already treats as no
    progress.  A coefficient beyond the range of a double raises
    OverflowError naming its partial.
    """
    u = [float(x) for x in start]
    if len(u) != chart.arity or not all(0 < x < math.inf for x in u):
        raise ValueError("start must be a finite, strictly positive chart point")
    with np.errstate(over="ignore"):
        u = _newton_converge(chart, u)
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
