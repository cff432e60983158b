"""Unit-volume slice charts: restriction, critical points, classification.

Fixing one summand index e and solving prod x_k^{d_k} = 1 for x_e gives a
global parametrization of the unit-volume slice by the remaining r-1
coordinates: x_e = prod x_k^{-d_k/d_e} over the retained k, which
SliceChart.inflate restores.  The restricted scalar curvature stays an
exact signomial: in one pass over the terms of scal, in ints, a power x_e^p
adds -p d_k/d_e to the exponent of each retained x_k, and the indices above
e shift down by one; no key is made canonical a second time.

Critical points of the reduced function are Einstein metrics.  The
multi-start Newton search finds them; the whole damped Newton search of a
start runs as one generated function with the kernels' term statements,
bound once per chart by Signomial._compiled.  A converged start is
snapped to a nearby simple rational point where the exact gradient
vanishes (exact_snap, which reads each partial as Signomial.line_exact's
S1 along a unit axis); the chart keeps each rounded point's verdict, so
the exact gradient is tested once per rounded point, however many starts
or callers meet there.  The linear algebra is written once, on plain
floats: jacobi_eigh, solve and vector_norm (shared by the flow's stop
test).
At a critical point the Hessian spectrum decides between a strict local
maximum candidate, a saddle, and the degenerate case (semidefinite with
kernel) that second order information cannot settle; degenerate points are
referred to the probe module for a third-order verdict.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .signomial import Signomial, _as_int, _define, _names, _order2_layout, _partial_sums
from .space import HomogeneousSpace

# |eigenvalue| at most KERNEL_TOL times the Hessian's scale counts as kernel
KERNEL_TOL = 1e-9


def _check_kernel_tol(kernel_tol: float) -> None:
    if not 0 <= kernel_tol < math.inf:
        raise ValueError(f"kernel_tol must be a finite number >= 0, got {kernel_tol!r}")


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
    # exact_snap's rounded points: their doubles and whether the exact gradient vanishes
    _snaps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # and the doubles of the iterates it returned None for
    _rejected: set = field(default_factory=set, init=False, repr=False, compare=False)

    @property
    def arity(self) -> int:
        return self.reduced.arity

    def inflate(self, point: Sequence[float]) -> tuple[float, ...]:
        """Chart point -> full metric point, restoring the eliminated coordinate
        x_e = prod over retained k of x_k^(-d_k/d_e), each exponent the double
        of the int division."""
        if len(point) != self.arity:
            raise ValueError(f"chart point needs {self.arity} coordinates")
        e, dims = self.eliminated, self.dims
        xe = 1.0
        for x, d in zip(point, dims[:e] + dims[e + 1:]):
            xe *= float(x) ** (-d / dims[e])
        full = list(float(x) for x in point)
        full.insert(e, xe)
        return tuple(full)


def restrict(space: HomogeneousSpace, eliminated: int | None = None) -> SliceChart:
    """Restrict the scalar curvature of `space` to the unit-volume slice.

    By default the last summand is eliminated (for the catalog families it
    has d_e = 1, which keeps all exponents integral); any index works, the
    exponents just become rationals.  An index that is not an integer in
    [0, r) is a ValueError.  The reduced terms are scal's, in its order:
    scal is homogeneous, so no two of its terms meet on the slice.  The
    exponent of a retained x_k in a term x_e^p prod x_k^{e_k} of scal,
    (e_k d_e - p d_k) / d_e, is worked out in ints, a zero one left out and
    each distinct numerator made a Fraction once: keys are canonical as built.
    """
    r = space.r
    eliminated = r - 1 if eliminated is None else _as_int(eliminated, "eliminated index")
    if not 0 <= eliminated < r:
        raise ValueError(f"eliminated index {eliminated} out of range for r = {r}")
    de = space.dims[eliminated]
    retained = [(k, d) for k, d in enumerate(space.dims) if k != eliminated]
    exponents: dict[int, Fraction] = {}
    terms = {}
    for key, c in space.scalar_curvature().terms.items():
        ints = {k: e.numerator for k, e in key}
        p = ints.get(eliminated, 0)
        factors = []
        for j, (k, d) in enumerate(retained):
            num = ints.get(k, 0) * de - p * d
            if num:
                e = exponents.get(num) or exponents.setdefault(num, Fraction(num, de))
                factors.append((j, e))
        terms[tuple(factors)] = c
    return SliceChart(label=space.name, dims=space.dims, eliminated=eliminated,
                      reduced=Signomial._unchecked(r - 1, terms))


def jacobi_eigh(matrix: Sequence[Sequence[float]]):
    """Eigen-decomposition of a small symmetric matrix by cyclic Jacobi
    rotations R (R[p][p] = R[q][q] = c, R[p][q] = -R[q][p] = s; Golub & Van
    Loan, Matrix Computations, 8.5) until every off-diagonal entry is below
    1e-13 times the largest entry, at most 60 sweeps.  Returns lists: the
    eigenvalues ascending, and the rows of the matrix whose columns are the
    matching eigenvectors.  A matrix not square, not finite or not symmetric
    to 1e-12 times its largest entry is a ValueError.  A matrix whose largest
    |entry| is below 2^-900 is first scaled by the power of two that brings
    it into [0.5, 1), exactly, and its eigenvalues scaled back: subnormal
    entries would otherwise lose relative accuracy in the rotations."""
    try:
        a = [[float(x) for x in row] for row in matrix]
    except TypeError:
        raise ValueError("expected a square matrix of numbers") from None
    m = len(a)
    if any(len(row) != m for row in a):
        raise ValueError(f"expected a square matrix, got rows of lengths {[len(row) for row in a]}")
    if not all(math.isfinite(x) for row in a for x in row):
        raise ValueError("matrix has a non-finite entry")
    scale = max((abs(x) for row in a for x in row), default=0.0)
    shift = -math.frexp(scale)[1] if 0 < scale < 2.0 ** -900 else 0
    if shift:
        a = [[math.ldexp(x, shift) for x in row] for row in a]
        scale = math.ldexp(scale, shift)
    if any(abs(a[i][j] - a[j][i]) > 1e-12 * scale for i in range(m) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    v = [[float(i == j) for j in range(m)] for i in range(m)]
    threshold = 1e-13 * scale
    for _ in range(60 if m > 1 and scale else 0):
        off = 0.0
        for p, q in itertools.combinations(range(m), 2):
            apq = a[p][q]
            off = max(off, abs(apq))
            if abs(apq) <= threshold:
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            # a <- R^T a R (rows p and q, then columns p and q) and v <- v R, in place
            rp, rq = a[p], a[q]
            a[p] = [c * x - s * y for x, y in zip(rp, rq)]
            a[q] = [s * x + c * y for x, y in zip(rp, rq)]
            for row in itertools.chain(a, v):
                x, y = row[p], row[q]
                row[p], row[q] = c * x - s * y, s * x + c * y
        if off <= threshold:
            break
    order = sorted(range(m), key=lambda i: a[i][i])
    return [math.ldexp(a[i][i], -shift) for i in order], [[row[i] for i in order] for row in v]


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """The sum of u[i] * v[i] in index order, from 0.0."""
    total = 0.0
    for x, y in zip(u, v):
        total += x * y
    return total


def vector_norm(v: Sequence[float]) -> float:
    """sqrt(_dot(v, v)): the norm of the Newton search, the flow's stop test
    and the kernel vectors; inf when a square is beyond a double."""
    return math.sqrt(_dot(v, v))


def _norm_source(prefix: str, count: int) -> str:
    """vector_norm of prefix0, prefix1, ... written out for generated code
    with sqrt = math.sqrt (0.0 plus the first square is that square)."""
    return f"sqrt({_names(prefix + '{i} * ' + prefix + '{i}', count, ' + ', '0.0')})"


def _eliminate(a: Sequence[Sequence[float]], b: Sequence[float]) -> "list[float] | None":
    """Gaussian elimination with partial pivoting (the first row of largest
    |entry|) and back substitution; None at a pivot that is exactly 0."""
    m = len(b)
    rows = [[*row, y] for row, y in zip(a, b)]
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        if pivot[k] == 0:
            return None
        for row in rows[k + 1:]:
            f = row[k] / pivot[k]
            row[k:] = [x - f * y for x, y in zip(row[k:], pivot[k:])]
    x = [0.0] * m
    for k in reversed(range(m)):
        x[k] = (rows[k][m] - _dot(rows[k][k + 1:m], x[k + 1:])) / rows[k][k]
    return x


def solve(a: Sequence[Sequence[float]], b: Sequence[float]) -> list[float]:
    """x with A x = b for a small symmetric matrix A of floats, by _eliminate
    (on one row the division (b0 - 0.0) / a00, whose bits are b0 / a00).  At
    a pivot that is exactly 0, or an x that is not finite, the minimum-norm
    least-squares solution A^+ b from the Jacobi spectrum, without
    eigenvalues of |lambda| <= m * eps * max; NaNs when A is not finite."""
    m = len(b)
    x = _eliminate(a, b)
    if x is not None and all(map(math.isfinite, x)):
        return x
    if not all(math.isfinite(h) for row in a for h in row):
        return [math.nan] * m
    eigvals, eigvecs = jacobi_eigh(a)
    cutoff = m * math.ulp(1.0) * max(map(abs, eigvals), default=0.0)
    x = [0.0] * m
    for lam, vec in zip(eigvals, zip(*eigvecs)):
        if abs(lam) > cutoff:
            w = _dot(vec, b) / lam
            x = [xi + w * vi for xi, vi in zip(x, vec)]
    return x


@dataclass(frozen=True)
class CriticalPoint:
    coords: tuple[float, ...]
    grad_norm: float
    label: Classification
    eigenvalues: tuple[float, ...]
    eigenvectors: tuple[tuple[float, ...], ...]  # columns match eigenvalues
    kernel_band: float  # |eigenvalue| at most this counts as kernel

    @classmethod
    def at(cls, chart: SliceChart, point: Sequence[float],
           kernel_tol: float = KERNEL_TOL) -> "CriticalPoint":
        """Label a chart point from one gradient check and one Hessian spectrum.

        kernel_tol, a finite number >= 0, is relative to the larger of the
        largest |eigenvalue| and the cancellation scale of the Hessian
        entries, so that an all-roundoff spectrum is kernel; the point is
        critical when |grad| is below 1e-8 times the cancellation scale of
        the gradient entries.  DEGENERATE means the Hessian is negative
        semidefinite with kernel: not settled at second order, probe along
        the kernel.  A point where a term overflows a float, or a gradient or
        Hessian entry is not finite (a sum that overflows, or overflowing
        terms that cancel to a NaN), is a ValueError, as is any other
        kernel_tol.
        """
        _check_kernel_tol(kernel_tol)
        coords = tuple(float(x) for x in point)
        if not all(0 < x < math.inf for x in coords):
            raise ValueError(f"chart point must be finite and strictly positive, got {coords}")
        f = chart.reduced
        try:
            grad = f.partials_float(coords, 1)
            hess = f.hessian_float(coords)
            # an overflowing sum is +-inf; overflowing terms that cancel, NaN
            if not all(map(math.isfinite, grad + [h for row in hess for h in row])):
                raise OverflowError
            grad_norm = math.hypot(*grad)
            grad_scale = math.hypot(*f.partials_float(coords, 1, absolute=True))
            eigvals, eigvecs = jacobi_eigh(hess)
            hess_scale = max(f.partials_float(coords, 2, absolute=True), default=0.0)
            band = kernel_tol * max(max(map(abs, eigvals), default=0.0), hess_scale)
        except OverflowError:
            raise ValueError(f"chart point {coords}: a term overflows a float") from None
        if grad_norm >= 1e-8 * max(grad_scale, 1e-300):
            label = Classification.NOT_CRITICAL
        elif all(v < -band for v in eigvals):
            label = Classification.LOCAL_MAX_CANDIDATE
        elif any(v > band for v in eigvals):
            label = Classification.SADDLE
        else:
            label = Classification.DEGENERATE
        return cls(
            coords=coords,
            grad_norm=grad_norm,
            label=label,
            eigenvalues=tuple(eigvals),
            eigenvectors=tuple(map(tuple, eigvecs)),
            kernel_band=band,
        )

    def kernel(self) -> list[tuple[float, ...]]:
        """Unit eigenvectors, as tuples, with eigenvalue in the band the point
        was labelled with, each with its first nonzero coordinate positive."""
        out = []
        for lam, vec in zip(self.eigenvalues, zip(*self.eigenvectors)):
            if abs(lam) <= self.kernel_band:
                norm = vector_norm(vec)
                unit = tuple(c / norm for c in vec)
                lead = next((c for c in unit if abs(c) > 1e-12), 1.0)
                out.append(unit if lead > 0 else tuple(-c for c in unit))
        return out


@functools.lru_cache(maxsize=256)
def _search_template(arity: int, hessian_shape: tuple, gradient_shape: tuple):
    """Compile the whole damped Newton search for charts of one shape (see
    Signomial._order_constants): (u, g, gnorm, constants) -> the last
    iterate as a tuple, or None when the search fails.  Bound per chart by
    Signomial._compiled(_search_template, 2, 1).

    u is the start as a list, g its gradient and gnorm that gradient's norm.
    The constants are those of the order-2 partials, then the order-1.  The
    iterate, its gradient, the direction and the trials are scalars (u0, g0,
    d0, p0, ...).  Up to 100 steps run until gnorm < 1e-12, else the search
    fails, even when the 100th step converges; then up to 12 polish steps run
    until one is not possible.  One loop writes the step once: the Hessian
    at u and each trial's gradient with the kernels' own term statements, so
    every double is the one the kernels would return, then the direction
    solve(H, -g), which at arity 1 is the division -g0 / h0 with no step
    when h0 == 0, as solve has it.  Each trial coordinate is u + damp * d,
    and its norm is _norm_source's.  The step is halved up to 60 times until
    the trial is strictly positive and its gradient norm is below gnorm;
    without the second condition the near-singular Hessian at a degenerate
    point throws iterates out of the basin.
    """
    if arity == 1:
        direction = ["    if not h0:", "        break", "    d0 = -g0 / h0"]
    else:
        matrix = ", ".join(f"[{', '.join(f'h{k}' for k in row)}]" for row in _order2_layout(arity))
        direction = [f"    [{_names('d{i}', arity)}] = solve([{matrix}], "
                     f"[{_names('-g{i}', arity)}])"]
    finite = _names("isfinite(d{i})", arity, " and ", "True")
    nonzero = _names("d{i}", arity, " or ", "False")
    hessian, count = _partial_sums(hessian_shape, "h", "u")
    gradient, count = _partial_sums(gradient_shape, "t", "p", count)
    lines = [
        f"    [{_names('u{i}', arity)}] = u",
        f"    [{_names('g{i}', arity)}] = g",
        "    left, polish = 100, False",
        "    while left:  # left = 0 ends the search: with u when polishing, else None",
        "        if not polish and gnorm < 1e-12:",
        "            left, polish = 12, True",
        "        left -= 1",
        *(f"    {line}" for line in hessian + direction),
        f"        if not ({finite}) or not ({nonzero}):",
        "            break",
        "        # the last trial starts at u: a trial equal to u ends the step",
        f"        {_names('l{i}, ', arity, '')}damp = {_names('u{i}, ', arity, '')}1.0",
        "        for _ in range(60):",
        *(f"            p{i} = u{i} + damp * d{i}" for i in range(arity)),
        f"            if {_names('p{i} == u{i}', arity, ' and ', 'True')}:",
        "                left = 0  # every shorter step rounds to u as well",
        "                break",
        "            # a trial that rounds to the last one was already rejected",
        f"            if ({_names('p{i} != l{i}', arity, ' or ', 'False')})"
        f" and {_names('p{i} > 0', arity, ' and ', 'True')}:",
        *(f"            {line}" for line in gradient),
        f"                tnorm = {_norm_source('t', arity)}",
        "                if isfinite(tnorm) and tnorm < gnorm:",
        f"                    {_names('u{i}, ', arity, '')}{_names('g{i}, ', arity, '')}gnorm = "
        f"{_names('p{i}, ', arity, '')}{_names('t{i}, ', arity, '')}tnorm",
        "                    break",
        f"            {_names('l{i}, ', arity, '')}damp = {_names('p{i}, ', arity, '')}damp * 0.5",
        "        else:  # no trial made progress",
        "            left = 0",
        f"    return ({_names('u{i}, ', arity, '')}) if polish else None",
    ]
    names = {"solve": solve, "isfinite": math.isfinite, "sqrt": math.sqrt}
    return _define("newton_search", "u, g, gnorm", count, lines,
                   f"<newton search, arity {arity}>", names)


def exact_snap(chart: SliceChart, u: Sequence[float]) -> "tuple[Fraction, ...] | None":
    """Round to a nearby simple rational point and return it, as Fractions,
    only if the exact gradient vanishes there; None otherwise.

    A converged float iterate near a degenerate critical point still carries
    an offset ~sqrt(eps) along the kernel direction, because the gradient is
    quadratic in that offset.  When the true critical point has simple
    rational coordinates (the all-ones metrics of the catalog), exact
    verification recovers it precisely.

    Each coordinate is rounded to the closest rational of denominator at most
    1000, which must lie within 1e-6.  The exact gradient is read from the
    one exact evaluator, each partial as Signomial.line_exact's S1 along its
    unit axis, so no partial signomial is built.  It is tested once per
    rounded point and chart: chart._snaps keeps each rounded point's doubles
    and verdict, so the starts of one search that meet at a point, and the
    CLI's second snap of a point, share one test.  A u within 1e-8 of a kept
    point's doubles is not rounded again, as it rounds to that point: below
    2^33 the doubles lie within 5e-7 of the point and every other rational
    of denominator at most 1000 lies 1e-6 from it; from 2^33 on, doubles are
    more than 1e-6 apart, so those of a kept point are the iterate that was
    rounded to it, or 2^33 itself.  The doubles of an iterate that gave None
    are kept in chart._rejected, and give None again without a rounding.
    """
    try:
        doubles = tuple(map(float, u))
        if doubles in chart._rejected:
            return None
        for snapped, (near, vanishes) in chart._snaps.items():
            if math.dist(doubles, near) < 1e-8:
                return snapped if vanishes else None
        snapped = tuple(Fraction(x).limit_denominator(1000) for x in doubles)
        near = tuple(map(float, snapped))
        if (any(s <= 0 for s in snapped)
                or max((abs(s - x) for s, x in zip(near, doubles)), default=0.0) > 1e-6):
            chart._rejected.add(doubles)
            return None
    except ArithmeticError:
        return None
    kept = chart._snaps.get(snapped)
    if kept is None:
        try:
            vanishes = all(
                chart.reduced.line_exact(snapped, [int(i == j) for j in range(chart.arity)])[1] == 0
                for i in range(chart.arity))
        except ArithmeticError:
            vanishes = False
        kept = chart._snaps[snapped] = near, vanishes
    if not kept[1]:
        chart._rejected.add(doubles)
    return snapped if kept[1] else None


def newton_critical(chart: SliceChart, start: Sequence[float]) -> "tuple[float, ...] | None":
    """Damped Newton iteration on the reduced gradient: the converged chart
    point, snapped to a nearby simple rational point where the exact gradient
    vanishes, or None if the iteration fails.  The point is not labelled.

    Steps solve H delta = -grad (minimum-norm least squares when the Hessian
    is singular) and are halved until the iterate stays strictly positive.
    Once the gradient norm drops below 1e-12 (within 100 steps), a few polish
    steps follow; along a degenerate direction the gradient is cubic in the
    offset, so polishing sharpens coordinates well past the first iterate
    that converges.  The gradient is evaluated once per point: at the start
    (Signomial.partials_float) and at each damping trial that rounds to a
    new point, inside the chart's generated search (_search_template); an
    accepted trial keeps its gradient as the next iterate's.  The whole
    iteration is that one call, on scalar floats, and the point is a tuple.
    A start whose iterates overflow a float in a term has failed; a gradient
    norm that overflows is inf, which the step damping already treats as no
    progress.  A coefficient beyond the range of a double raises
    OverflowError naming its partial.  The snap reads and fills the chart's
    memo of rounded points (exact_snap), so the starts of one search that
    converge to one point share one exact gradient test.
    """
    u = [float(x) for x in start]
    if len(u) != chart.arity or not all(0 < x < math.inf for x in u):
        raise ValueError("start must be a finite, strictly positive chart point")
    reduced = chart.reduced
    # bound first: a coefficient beyond a double raises, it does not fail the start
    search = reduced._compiled(_search_template, 2, 1)
    try:
        grad = reduced.partials_float(u, 1)
        if not all(math.isfinite(g) for g in grad):
            return None
        point = search(u, grad, vector_norm(grad))
    except OverflowError:
        return None
    if point is None:
        return None
    snapped = exact_snap(chart, point)
    return point if snapped is None else tuple(float(s) for s in snapped)


def _start_axis(per_axis: int) -> list[float]:
    """math.exp at numpy.linspace(log 0.25, log 4, per_axis)'s abscissae:
    i * step + log 0.25, and log 4 itself last."""
    if per_axis < 0:
        raise ValueError(f"per_axis must be >= 0, got {per_axis}")
    lo, hi = math.log(0.25), math.log(4.0)
    step = (hi - lo) / max(per_axis - 1, 1)
    points = [i * step + lo for i in range(per_axis)]
    if per_axis > 1:
        points[-1] = hi
    return [math.exp(x) for x in points]


def find_critical_points(chart: SliceChart, per_axis: int = 5,
                         kernel_tol: float = KERNEL_TOL) -> list[CriticalPoint]:
    """Multi-start Newton from a logarithmic grid of per_axis points per axis
    on [0.25, 4]; each distinct point labelled once, results sorted.

    Each start's point is snapped by newton_critical, against one memo of
    rounded points per chart, so the exact gradient is tested once per
    rounded point however many starts reach it.  A converged point within
    1e-8 (math.dist) of a point already kept is skipped before it is
    labelled.  Points labelled NotCritical are dropped:
    they arise when the iteration stalls in the far field where every term
    of the reduced function (and so the absolute gradient norm) decays below
    1e-12 without an actual zero.  kernel_tol is checked before the search.
    """
    _check_kernel_tol(kernel_tol)
    found: list[CriticalPoint] = []
    for start in itertools.product(_start_axis(per_axis), repeat=chart.arity):
        u = newton_critical(chart, start)
        if u is None or any(math.dist(u, f.coords) < 1e-8 for f in found):
            continue
        cp = CriticalPoint.at(chart, u, kernel_tol=kernel_tol)
        if cp.label is not Classification.NOT_CRITICAL:
            found.append(cp)
    return sorted(found, key=lambda cp: cp.coords)
