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
        f = self.reduced
        return np.array(
            [f.partial(i).eval_float(point) for i in range(self.arity)], dtype=float
        )

    def gradient_scale(self, point: Sequence[float]) -> float:
        """Magnitude reference for deciding that a gradient has cancelled."""
        parts = [self.reduced.partial(i).eval_abs(point) for i in range(self.arity)]
        return math.sqrt(sum(p * p for p in parts))

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


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60):
    """Eigen-decomposition of a small symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until the largest off-diagonal entry falls below tol times the
    largest entry of the input.  Returns (eigenvalues ascending, eigenvector
    columns in matching order).
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
    threshold = tol * scale
    for _ in range(max_sweeps):
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


def hessian_spectrum(chart: SliceChart, point: Sequence[float]):
    """Eigenvalues (ascending) and eigenvectors of the reduced Hessian at a point."""
    return jacobi_eigh(chart.hessian_values(point))


def _kernel_band(eigenvalues, kernel_tol: float) -> float:
    """Eigenvalues within this distance of zero count as kernel."""
    return kernel_tol * max((abs(v) for v in eigenvalues), default=0.0)


@dataclass(frozen=True)
class CriticalPoint:
    coords: tuple[float, ...]
    grad_norm: float
    label: Classification
    eigenvalues: tuple[float, ...]
    eigenvectors: tuple[tuple[float, ...], ...]  # columns match eigenvalues

    @classmethod
    def at(
        cls,
        chart: SliceChart,
        point: Sequence[float],
        kernel_tol: float = 1e-9,
        grad_tol: float = 1e-8,
    ) -> "CriticalPoint":
        """Label a chart point from one gradient check and one Hessian spectrum.

        kernel_tol is relative to the largest |eigenvalue|; grad_tol is
        relative to the cancellation scale of the gradient entries.
        DEGENERATE means the Hessian is negative semidefinite with kernel:
        not settled at second order, probe along the kernel.
        """
        coords = tuple(float(x) for x in point)
        if not all(0 < x < math.inf for x in coords):
            raise ValueError(f"chart point must be finite and strictly positive, got {coords}")
        grad_norm = float(np.linalg.norm(chart.gradient_values(coords)))
        eigvals, eigvecs = hessian_spectrum(chart, coords)
        band = _kernel_band(eigvals, kernel_tol)
        if grad_norm >= grad_tol * max(chart.gradient_scale(coords), 1e-300):
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
        )

    def kernel(self, kernel_tol: float = 1e-9) -> list[np.ndarray]:
        """Unit eigenvectors with eigenvalue in the kernel band, each with its
        first nonzero coordinate positive."""
        band = _kernel_band(self.eigenvalues, kernel_tol)
        out = []
        for lam, vec in zip(self.eigenvalues, np.array(self.eigenvectors).T):
            if abs(lam) <= band:
                unit = vec / np.linalg.norm(vec)
                lead = next((c for c in unit if abs(c) > 1e-12), 1.0)
                out.append(unit if lead > 0 else -unit)
        return out


def classify(
    chart: SliceChart,
    point: Sequence[float],
    kernel_tol: float = 1e-9,
    grad_tol: float = 1e-8,
) -> Classification:
    """Second-order label for a point of the chart (see CriticalPoint.at)."""
    return CriticalPoint.at(chart, point, kernel_tol=kernel_tol, grad_tol=grad_tol).label


def kernel_basis(
    chart: SliceChart, point: Sequence[float], kernel_tol: float = 1e-9
) -> list[np.ndarray]:
    """Unit Hessian kernel vectors at a critical point (see CriticalPoint.kernel)."""
    cp = CriticalPoint.at(chart, point, kernel_tol=kernel_tol)
    if cp.label is Classification.NOT_CRITICAL:
        raise ValueError(f"point {tuple(point)} is not critical")
    return cp.kernel(kernel_tol)


def _newton_step(chart: SliceChart, u: np.ndarray) -> "np.ndarray | None":
    """One damped Newton step on the gradient; None when no step is possible.

    The step is halved until the iterate is strictly positive and the
    gradient norm decreases; without the second condition the near-singular
    Hessian at a degenerate point throws iterates out of the basin.
    """
    grad = chart.gradient_values(u)
    hess = chart.hessian_values(u)
    try:
        delta = np.linalg.solve(hess, -grad)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        delta = np.linalg.lstsq(hess, -grad, rcond=None)[0]
    if not np.all(np.isfinite(delta)) or not delta.any():
        return None
    gnorm = float(np.linalg.norm(grad))
    damp = 1.0
    for _ in range(60):
        trial = u + damp * delta
        if np.all(trial > 0):
            tnorm = float(np.linalg.norm(chart.gradient_values(trial)))
            if np.isfinite(tnorm) and tnorm < gnorm:
                return trial
        damp *= 0.5
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


def newton_critical(
    chart: SliceChart,
    start: Sequence[float],
    tol: float = 1e-12,
    max_iter: int = 100,
    kernel_tol: float = 1e-9,
) -> CriticalPoint | None:
    """Damped Newton iteration on the reduced gradient; None if it fails.

    Steps solve H delta = -grad (minimum-norm least squares when the Hessian
    is singular) and are halved until the iterate stays strictly positive.
    Once the gradient norm drops below tol, a few polish steps follow; along
    a degenerate direction the gradient is cubic in the offset, so polishing
    sharpens coordinates well past the first iterate that meets tol.
    """
    u = np.array([float(x) for x in start], dtype=float)
    if len(u) != chart.arity or not np.all((u > 0) & np.isfinite(u)):
        raise ValueError("start must be a finite, strictly positive chart point")
    converged = False
    for _ in range(max_iter):
        grad = chart.gradient_values(u)
        if not np.all(np.isfinite(grad)):
            return None
        if float(np.linalg.norm(grad)) < tol:
            converged = True
            break
        nxt = _newton_step(chart, u)
        if nxt is None:
            return None
        u = nxt
    if not converged:
        return None
    best_u = u
    best_norm = float(np.linalg.norm(chart.gradient_values(u)))
    for _ in range(12):
        nxt = _newton_step(chart, best_u)
        if nxt is None:
            break
        norm = float(np.linalg.norm(chart.gradient_values(nxt)))
        if norm < best_norm:
            best_u, best_norm = nxt, norm
        else:
            break
    snapped = _try_exact_snap(chart, best_u)
    return CriticalPoint.at(chart, best_u if snapped is None else snapped, kernel_tol=kernel_tol)


def find_critical_points(
    chart: SliceChart,
    low: float = 0.25,
    high: float = 4.0,
    per_axis: int = 5,
    tol: float = 1e-12,
    dedupe: float = 1e-8,
    kernel_tol: float = 1e-9,
) -> list[CriticalPoint]:
    """Multi-start Newton over a logarithmic grid; deduplicated, sorted results.

    Runs labeled NotCritical are dropped: they arise when the iteration
    stalls in the far field where every term of the reduced function (and so
    the absolute gradient norm) decays below tol without an actual zero.
    """
    axis = np.exp(np.linspace(math.log(low), math.log(high), per_axis))
    found: list[CriticalPoint] = []
    for start in itertools.product(axis, repeat=chart.arity):
        res = newton_critical(chart, start, tol=tol, kernel_tol=kernel_tol)
        if res is None or res.label is Classification.NOT_CRITICAL:
            continue
        if any(
            np.linalg.norm(np.array(res.coords) - np.array(f.coords)) < dedupe
            for f in found
        ):
            continue
        found.append(res)
    return sorted(found, key=lambda cp: cp.coords)
