"""Output checks for the benchmark, independent of homscal's evaluators.

Everything here is written against the summand data (d_k, b_k, [ijk]) and the
closed forms in the README; nothing imports homscal.  Each check returns a
list of problems, empty when the output is correct.

The scalar curvature used by the oracles is

    scal(x) = 1/2 sum_k b_k d_k / x_k - 1/4 sum_{ordered (i,j,k)} [ijk] x_k / (x_i x_j)

expanded into (coefficient, exponent-vector) terms with numpy.
"""

from __future__ import annotations

import ast
import itertools
import math
import re
from fractions import Fraction

import numpy as np

# README: "the finite-difference oracle agrees with the exact contractions to
# (1e-6, 1e-6, 1e-4) relative on all catalog curves".
FD_TOL = (1e-6, 1e-6, 1e-4)
# Relative spread allowed in x_k dscal/dx_k / d_k across k at a printed point.
EINSTEIN_TOL = 1e-7
# Relative eigenvalue band inside which the label oracle does not judge.
LABEL_BAND = 1e-6
MONOTONE_TOL = 1e-10
FLOW_REASONS = ("budget", "left-region", "gradient-small")


# -- scalar curvature from summand data --------------------------------------


def scal_terms(dims, b, triples) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, exponent rows) of scal in the r metric coefficients.

    `triples` maps index triples to values; permutations of one multiset
    must carry the same value and are counted once.
    """
    r = len(dims)
    coeffs, rows = [], []
    for k in range(r):
        row = np.zeros(r)
        row[k] = -1.0
        coeffs.append(float(Fraction(b[k])) * dims[k] / 2.0)
        rows.append(row)
    canon = {tuple(sorted(key)): Fraction(v) for key, v in triples.items()}
    for key, v in canon.items():
        for i, j, k in set(itertools.permutations(key)):
            row = np.zeros(r)
            row[k] += 1.0
            row[i] -= 1.0
            row[j] -= 1.0
            coeffs.append(-float(v) / 4.0)
            rows.append(row)
    return np.array(coeffs), np.array(rows)


def inflate(dims, eliminated: int, chart_point) -> np.ndarray:
    """Chart coordinates -> full metric on the unit-volume slice."""
    retained = [k for k in range(len(dims)) if k != eliminated]
    u = np.asarray(chart_point, dtype=float)
    log_xe = -sum(dims[k] * math.log(x) for k, x in zip(retained, u)) / dims[eliminated]
    full = np.empty(len(dims))
    full[retained] = u
    full[eliminated] = math.exp(log_xe)
    return full


def scal_value(dims, b, triples, x) -> float:
    coeffs, rows = scal_terms(dims, b, triples)
    return float(coeffs @ np.prod(np.asarray(x, dtype=float) ** rows, axis=1))


def einstein_problems(dims, b, triples, x, tol: float = EINSTEIN_TOL) -> list[str]:
    """x is Einstein on the slice iff x_k dscal/dx_k / d_k is the same for all k."""
    coeffs, rows = scal_terms(dims, b, triples)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        return [f"metric {x.tolist()} is not finite and positive"]
    t = coeffs * np.prod(x ** rows, axis=1)
    d = np.asarray(dims, dtype=float)
    lam = (rows * t[:, None]).sum(axis=0) / d
    scale = (np.abs(rows) * np.abs(t)[:, None]).sum(axis=0).max() / d.min()
    spread = float(lam.max() - lam.min())
    if not np.isfinite(spread) or spread > tol * scale:
        return [f"not Einstein at {x.tolist()}: x_k dscal/dx_k / d_k = {lam.tolist()}"]
    return []


def reduced_hessian(dims, b, triples, eliminated: int, chart_point):
    """Hessian of scal restricted to the slice, and its no-cancellation scale."""
    coeffs, rows = scal_terms(dims, b, triples)
    retained = [k for k in range(len(dims)) if k != eliminated]
    # x_e = prod_k u_k^(-d_k/d_e): fold the eliminated exponent into the others
    a = rows[:, retained] - np.outer(
        rows[:, eliminated], [dims[k] / dims[eliminated] for k in retained]
    )
    u = np.asarray(chart_point, dtype=float)
    t = coeffs * np.prod(u ** a, axis=1)
    m = len(retained)
    h = np.zeros((m, m))
    h_abs = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            factor = a[:, i] * a[:, j] - (a[:, i] if i == j else 0.0)
            h[i, j] = (t * factor).sum() / (u[i] * u[j])
            h_abs[i, j] = (np.abs(t * factor)).sum() / (u[i] * u[j])
    return h, float(np.abs(h_abs).max())


def label_problems(dims, b, triples, eliminated, chart_point, label: str) -> list[str]:
    """Flag a second-order label that the Hessian spectrum clearly contradicts."""
    h, scale = reduced_hessian(dims, b, triples, eliminated, chart_point)
    eig = np.linalg.eigvalsh(h)
    band = LABEL_BAND * max(scale, float(np.abs(eig).max(initial=0.0)))
    wrong = {
        "LocalMaxCandidate": eig.max() > band,
        "Saddle": eig.max() < -band,
        "Degenerate": eig.max() > band or np.abs(eig).min() > band,
    }.get(label, True)
    if wrong:
        return [f"label {label} contradicts eigenvalues {eig.tolist()} at {list(chart_point)}"]
    return []


# -- closed forms (README table) ------------------------------------------------


def su2n_normalizer(n: int) -> float:
    return (16 * n / ((2 * n - 1) * 16 ** n)) ** (1.0 / (n + 1 - 2 * n * n))


def expected_s3(family: str, n):
    """S3 along the kernel line: a Fraction where the README gives one exactly."""
    if family == "e6_su2_so6":
        return Fraction(180)
    if family == "su_n":
        return Fraction(n * n * (n - 1), (n - 2) ** 2)
    if family == "so2n_flag":
        return Fraction(2 * n * n * (n - 1), (n - 2) ** 2)
    if family == "su2n_mod_spn":
        return -2.0 * n * n * (n - 2) * (2 * n - 1) * (n - 1) / su2n_normalizer(n) ** 4
    raise ValueError(f"no closed form for {family}")


def flag_space_data(n: int):
    """(dims, b, triples) of the two-summand collapse of SO(2n)/T^n."""
    return (
        (4 * (n - 1), 2 * (n - 1) * (n - 2)),
        (1, 1),
        {(0, 0, 1): Fraction(2 * (n - 2)), (1, 1, 1): Fraction(2 * (n - 2) * (n - 3))},
    )


def s3_problems(family: str, n, s3_text: str) -> list[str]:
    want = expected_s3(family, n)
    if isinstance(want, Fraction):
        try:
            got = Fraction(s3_text)
        except (TypeError, ValueError, ZeroDivisionError):
            return [f"{family} n={n}: S3 {s3_text!r} is not a rational"]
        if got != want:
            return [f"{family} n={n}: S3 {got} != {want}"]
        return []
    got = float(s3_text)
    if not abs(got - want) <= 1e-6 * abs(want):
        return [f"{family} n={n}: S3 {got!r} not within 1e-6 of {want!r}"]
    return []


# -- report ------------------------------------------------------------------------

DEFAULT_REPORT = (
    [("e6_su2_so6", None)]
    + [("so2n_flag", n) for n in range(4, 9)]
    + [("su2n_mod_spn", n) for n in range(3, 7)]
    + [("su_n", n) for n in range(3, 11)]
)


def report_problems(payload: dict, rc: int) -> list[str]:
    problems = [] if rc == 0 else [f"report exit code {rc}"]
    records = payload.get("records") if isinstance(payload, dict) else None
    if not isinstance(records, list):
        return problems + ["report has no record list"]
    got = [(r.get("family"), r.get("n")) for r in records]
    if got != DEFAULT_REPORT:
        problems.append(f"report entries {got} != default ranges")
        return problems
    for r in records:
        family, n = r["family"], r["n"]
        if r.get("verdict") != "NotLocalMax":
            problems.append(f"{family} n={n}: verdict {r.get('verdict')}")
        if r.get("classification") != "Degenerate":
            problems.append(f"{family} n={n}: classification {r.get('classification')}")
        problems += s3_problems(family, n, r.get("s3"))
        try:
            gain = float(r["value_at_witness"]) - float(r["value_at_critical"])
        except (KeyError, TypeError, ValueError):
            gain = float("nan")
        if not gain > 0:
            problems.append(f"{family} n={n}: witness does not raise scal")
    return problems


# -- custom --search output ----------------------------------------------------------

_POINT = re.compile(r"^critical point \((.*)\): (\w+), \|grad\| = (\S+), eigenvalues \[(.*)\]$")


def parse_custom(stdout: str) -> tuple[list, list]:
    """(points, records) from `homscal custom` output.

    points: (coordinate strings, label); records: dicts of the printed keys.
    """
    points, records = [], []
    for line in stdout.splitlines():
        m = _POINT.match(line)
        if m:
            coords = ast.literal_eval("(" + m.group(1) + ")")
            points.append((tuple(coords), m.group(2)))
        elif line.startswith("["):
            records.append({"name": line.strip("[]")})
        elif line.startswith("  ") and records and ": " in line:
            key, value = line.strip().split(": ", 1)
            records[-1][key] = value
    return points, records


def search_problems(space: dict, expect_flag_n, rc: int, stdout: str, stderr: str):
    """Check one `custom --search` run; returns (outcome, points, problems).

    expect_flag_n is n for a collapsed flag space, whose answer is known:
    the chart point (1) is Degenerate and S3 has the README closed form.
    """
    dims = tuple(space["dims"])
    b = tuple(space.get("b") or [1] * len(dims))
    triples = {(t["i"], t["j"], t["k"]): Fraction(t["value"]) for t in space["triples"]}
    eliminated = space.get("eliminate", len(dims) - 1)
    points, records = parse_custom(stdout)
    problems: list[str] = []
    none_found = "no critical points found" in stdout + stderr
    if none_found:
        outcome = "none_found"
        if points or rc not in (0, 2):
            problems.append(f"none_found with exit {rc} and {len(points)} points")
    else:
        outcome = "found"
        if not points:
            problems.append(f"exit {rc} without critical points or a none-found message")
        not_max = [r for r in records if r.get("verdict") != "NotLocalMax"]
        if rc != (1 if not_max else 0):
            problems.append(f"exit {rc} with {len(not_max)} non-NotLocalMax records")
    for coords, label in points:
        try:
            u = [float(Fraction(c)) for c in coords]
        except (TypeError, ValueError, ZeroDivisionError):
            problems.append(f"unparseable point {coords}")
            continue
        if len(u) != len(dims) - 1 or not all(math.isfinite(c) and c > 0 for c in u):
            problems.append(f"point {coords} is not a positive chart point")
            continue
        problems += einstein_problems(dims, b, triples, inflate(dims, eliminated, u))
        problems += label_problems(dims, b, triples, eliminated, u, label)
    if expect_flag_n is not None:
        n = expect_flag_n
        if rc != 0 or (("1",), "Degenerate") not in points:
            problems.append(f"flag n={n}: (1) not found as Degenerate (exit {rc})")
        probes = [r for r in records if r.get("critical_point") == "['1']"]
        if not probes or any(r.get("verdict") != "NotLocalMax" for r in probes):
            problems.append(f"flag n={n}: no NotLocalMax probe at (1)")
        for r in probes:
            problems += s3_problems("so2n_flag", n, r.get("s3"))
    return outcome, points, problems


# -- flow ----------------------------------------------------------------------------


def trajectory_problems(
    points, values, reason: str, steps: int, max_steps: int, region, space=None
) -> list[str]:
    """Monotone values, positive points, a stop reason that matches the path.

    space, when given, is (dims, b, triples, eliminated) and the first and last
    values are recomputed from it.
    """
    problems = []
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(pts) != len(vals) or len(vals) != steps + 1:
        return [f"{len(pts)} points and {len(vals)} values for {steps} steps"]
    if not np.all(np.isfinite(pts)) or np.any(pts <= 0):
        problems.append("trajectory leaves the positive orthant")
    # each value at least the previous one minus 1e-10, compared in floats as
    # integrate_ascent states it; the difference form np.diff(vals) >= -1e-10
    # rounds differently and fails steps that fall by 1e-10 plus a fraction
    # of one ulp of the values (near scal = 1249, su2n_mod_spn n = 6)
    if not np.all(np.isfinite(vals)) or np.any(vals[1:] < vals[:-1] - MONOTONE_TOL):
        problems.append("values decrease by more than 1e-10")
    lo = np.array([r[0] for r in region])
    hi = np.array([r[1] for r in region])
    inside = np.all((pts > lo) & (pts < hi), axis=1)
    if reason not in FLOW_REASONS:
        problems.append(f"unknown stop reason {reason!r}")
    elif reason == "left-region" and (inside[-1] or not inside[:-1].all()):
        problems.append("left-region stop does not match the path")
    elif reason == "budget" and (steps != max_steps or not inside.all()):
        problems.append(f"budget stop after {steps} of {max_steps} steps")
    if space is not None and not problems:
        dims, b, triples, eliminated = space
        for idx in (0, -1):
            want = scal_value(dims, b, triples, inflate(dims, eliminated, pts[idx]))
            if not abs(vals[idx] - want) <= 1e-9 * max(1.0, abs(want)):
                problems.append(f"value {vals[idx]!r} at point {idx} != scal {want!r}")
    return problems


# -- oracles workload: bracket tables and the fd oracle --------------------------------

_CONST_LINE = re.compile(r"^\s+\[(\d)(\d)(\d)\] computed (\S+)\s+expected (\S+)\s+\|dev\| (\S+)$")


def expected_constants(algebra: str) -> dict:
    if algebra == "su2":
        return {(0, 0, 0): 3.0}
    if algebra == "su3":
        return {(0, 0, 0): 2.0, (0, 1, 1): 1.0, (1, 1, 2): 1.0}
    if algebra == "so8":
        # blocks p_ij of so(8)/T^4 in combinations order; [ijk] = 2/3 on triangles
        pairs = list(itertools.combinations(range(4), 2))
        return {
            tuple(sorted((pairs.index((i, j)), pairs.index((i, k)), pairs.index((j, k))))): 2 / 3
            for i, j, k in itertools.combinations(range(4), 3)
        }
    raise ValueError(f"unknown algebra {algebra}")


def constants_problems(algebra: str, rc: int, stdout: str, tol: float) -> list[str]:
    problems = [] if rc == 0 else [f"verify-constants {algebra} exit code {rc}"]
    want = expected_constants(algebra)
    seen = {}
    for line in stdout.splitlines():
        m = _CONST_LINE.match(line)
        if m:
            key = tuple(int(c) for c in m.group(1, 2, 3))
            seen[key] = (float(m.group(4)), float(m.group(5)))
    if not seen:
        return problems + [f"{algebra}: no constants printed"]
    for key, (computed, expected) in seen.items():
        if abs(expected - want.get(key, 0.0)) > 1e-12:
            problems.append(f"{algebra} [{key}]: expected column {expected} != {want.get(key, 0.0)}")
        if abs(computed - want.get(key, 0.0)) > tol:
            problems.append(f"{algebra} [{key}]: computed {computed} off by more than {tol}")
    missing = set(want) - set(seen)
    if missing:
        problems.append(f"{algebra}: constants {sorted(missing)} not printed")
    return problems


def fd_problems(label: str, s, scales, fd) -> list[str]:
    """Criterion-6 gaps: |fd - S| over max(|S|, its no-cancellation scale)."""
    gaps = [
        abs(float(f) - float(v)) / max(abs(float(v)), float(sc))
        for f, v, sc in zip(fd, s, scales)
    ]
    if not all(g <= t for g, t in zip(gaps, FD_TOL)):
        return [f"{label}: fd gaps {gaps} exceed {FD_TOL}"]
    return []
