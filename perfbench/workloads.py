"""The four workloads: seeded inputs, one timed op, and its output check.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  An op is grouped into cycles so that every run
measures whole cycles, which keeps the mix of inputs the same from run to
run (see README.md for why each workload exists).

A workload is constructed inside the timed set-up (run.setup): it receives
freshly imported homscal modules and writes or builds its inputs.
cycles() yields the ops' inputs, run(item) is the timed op and
check(item, raw) returns a Check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracles

FLOW_MAX_STEPS = 1500
FLOW_RADIUS = 0.2
FLOW_OFFSET = 1e-2
CONSTANTS_TOL = 1e-8  # verify-constants' default --tol


@dataclass
class Check:
    problems: list
    steps: int  # work items in the op: records, spaces, RK4 steps or checks
    fingerprint: str
    outcome: str = "ok"


def call_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _sha(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


class Report:
    """`homscal report` over the default ranges: 18 records, 4 families."""

    name = "report"
    trace_cycles = 1

    def __init__(self, hs, seed: int, workdir: str):
        self.cli = hs.cli
        self.out = os.path.join(workdir, f"report-{seed}.json")

    def cycles(self):
        while True:
            yield [None]

    def run(self, item):
        return call_cli(self.cli, ["report", "--out", self.out])

    def check(self, item, raw) -> Check:
        rc, _, err = raw
        with open(self.out, "rb") as fh:
            data = fh.read()
        os.remove(self.out)
        payload = json.loads(data)
        problems = oracles.report_problems(payload, rc)
        if err:
            problems.append(f"stderr: {err[:200]}")
        return Check(problems, len(payload.get("records", [])), _sha(data))


MULTISETS = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]
# every choice of 2 to 4 of the multisets, cycled so each run sees them evenly
SHAPES = [c for k in (2, 3, 4) for c in itertools.combinations(MULTISETS, k)]


# Flag spaces whose critical point (1) homscal mislabels at this commit: the
# float Hessian there is +-1e-14 instead of 0 and, on a one-variable chart,
# classify's kernel band is relative to that same eigenvalue, so (1) comes
# out LocalMaxCandidate or Saddle and no certificate is given.  They are left
# out of the timed workload, which must run without failures;
# tests/test_known_defects.py runs them and fails once they are fixed, so
# they can be put back.
MISLABELLED_FLAG_NS = frozenset({16, 37, 39})


def column_sums(dims, triples) -> list:
    """sum over ordered (i, j) of [ijk], for each k; triples maps index
    multisets to values."""
    sums = [Fraction(0)] * len(dims)
    for key, value in triples.items():
        for _, _, k in set(itertools.permutations(key)):
            sums[k] += value
    return sums


def admissible(dims, triples) -> bool:
    """The structural constants of a homogeneous space satisfy
    sum_ij [ijk] = d_k (b_k - 2 c_k) with Casimir constants c_k >= 0
    (Wang-Ziller), so with b = 1 every column sum is at most d_k."""
    return all(s <= d for s, d in zip(column_sums(dims, triples), dims))


def random_space(rng, index: int) -> dict:
    """Two summands, dims 1..30, triples on SHAPES[index % 11], values p/q
    with p <= 12, q <= 4; drawn again until admissible."""
    shape = SHAPES[index % len(SHAPES)]
    while True:
        dims = [int(d) for d in rng.integers(1, 31, size=2)]
        triples = {key: Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 5)))
                   for key in shape}
        if admissible(dims, triples):
            break
    return {
        "name": f"random-{index}",
        "dims": dims,
        "triples": [{"i": i, "j": j, "k": k, "value": str(v)}
                    for (i, j, k), v in triples.items()],
    }


def flag_space(n: int) -> dict:
    dims, _, triples = oracles.flag_space_data(n)
    return {
        "name": f"so{2 * n}_flag_collapsed",
        "dims": list(dims),
        "triples": [{"i": i, "j": j, "k": k, "value": str(v)} for (i, j, k), v in triples.items()],
    }


class Search:
    """`homscal custom --file F --search` on seeded two-summand space files.

    Spaces alternate between a random admissible space and the collapsed
    flag space of n in [4, 40] (less MISLABELLED_FLAG_NS), whose answer is
    known.  The flag n run through seeded permutations of the whole range,
    so every run covers it evenly.
    """

    name = "search"
    flag_range = [n for n in range(4, 41) if n not in MISLABELLED_FLAG_NS]
    trace_cycles = 4

    def __init__(self, hs, seed: int, workdir: str):
        self.cli = hs.cli
        rng = np.random.default_rng(seed)
        flag_ns = [int(n) for _ in range(3) for n in rng.permutation(self.flag_range)]
        self.items, paths = [], {}
        for i, n in enumerate(flag_ns):
            for space, flag_n in ((flag_space(n), n), (random_space(rng, i), None)):
                if space["name"] not in paths:  # each flag space is used three times
                    paths[space["name"]] = os.path.join(workdir, f"{space['name']}-{seed}.json")
                    with open(paths[space["name"]], "w", encoding="utf-8") as fh:
                        json.dump(space, fh)
                self.items.append((paths[space["name"]], space, flag_n))

    def cycles(self):
        while True:
            for i in range(0, len(self.items), 2):
                yield self.items[i:i + 2]

    def run(self, item):
        return call_cli(self.cli, ["custom", "--file", item[0], "--search"])

    def check(self, item, raw) -> Check:
        _, space, flag_n = item
        rc, out, err = raw
        outcome, points, problems = oracles.search_problems(space, flag_n, rc, out, err)
        rounded = [[[round(float(Fraction(c)), 8) for c in coords], label]
                   for coords, label in points]
        fingerprint = json.dumps([space["name"], outcome, rc, rounded])
        return Check(problems, 1, fingerprint, outcome)


def _oracle_space(entry):
    if entry.space is None:
        return None
    s = entry.space
    return (s.dims, s.b, dict(s.triples), entry.chart.eliminated)


def start_direction(rng, arity: int, phase: float, turn: float) -> np.ndarray:
    """Direction at angle 2 pi (phase + turn): (cos, sin) on two-variable
    charts, the sign of cos on one-variable charts, random above."""
    angle = 2 * math.pi * (phase + turn)
    if arity == 1:
        return np.array([math.copysign(1.0, math.cos(angle))])
    if arity == 2:
        return np.array([math.cos(angle), math.sin(angle)])
    return rng.normal(size=arity)


class Flow:
    """integrate_ascent from seeded starts 1e-2 from every catalog critical
    point, region +-0.2, at most 1500 steps: acceptance criterion 8's shape.

    Each entry's start directions are spread evenly over the pool's cycles
    from a seeded phase.  Whether a trajectory runs to the budget or leaves
    the region early depends on its direction, so every run, whatever its
    cycle count, sees nearly the same mix of the two.
    """

    name = "flow"
    pool_cycles = 8
    trace_cycles = 1

    def __init__(self, hs, seed: int, workdir: str):
        self.flow = hs.flow
        rng = np.random.default_rng(seed)
        entries = hs.catalog.default_entries()
        phases = rng.random(len(entries))
        self.pool = []
        for turn in np.arange(self.pool_cycles) / self.pool_cycles:
            cycle = []
            for entry, phase in zip(entries, phases):
                crit = np.array([float(x) for x in entry.critical_point])
                direction = start_direction(rng, len(crit), phase, turn)
                start = tuple(crit + FLOW_OFFSET * direction / np.linalg.norm(direction))
                region = [(max(c - FLOW_RADIUS, 1e-3), c + FLOW_RADIUS) for c in crit]
                key = f"{entry.family}/{entry.n}"
                cycle.append((key, entry.chart, start, region, _oracle_space(entry)))
            self.pool.append(cycle)

    def cycles(self):
        while True:
            yield from self.pool

    def run(self, item):
        _, chart, start, region, _ = item
        return self.flow.integrate_ascent(chart, start, max_steps=FLOW_MAX_STEPS, region=region)

    def check(self, item, traj) -> Check:
        key, _, _, region, space = item
        steps = len(traj.values) - 1
        problems = oracles.trajectory_problems(
            traj.points, traj.values, traj.reason, steps, FLOW_MAX_STEPS, region, space
        )
        return Check(problems, steps, f"{key}:{steps}:{traj.reason}", traj.reason)


class Oracles:
    """verify-constants for su2, su3 and so8, plus fd_check_auto against
    probe_chart on every default catalog curve, in a seeded order."""

    name = "oracles"
    trace_cycles = 1

    def __init__(self, hs, seed: int, workdir: str):
        self.cli, self.probe = hs.cli, hs.probe
        rng = np.random.default_rng(seed)
        self.algebras = [("su2", "su3", "so8")[i] for i in rng.permutation(3)]
        entries = hs.catalog.default_entries()
        self.curves = [(entries[i], entries[i].curve()) for i in rng.permutation(len(entries))]

    def cycles(self):
        while True:
            yield [None]

    def run(self, item):
        constants = [
            (a, call_cli(self.cli, ["verify-constants", "--algebra", a])) for a in self.algebras
        ]
        probes = [
            (entry, self.probe.probe_chart(entry.chart, curve),
             self.probe.fd_check_auto(entry.chart, curve))
            for entry, curve in self.curves
        ]
        return constants, probes

    def check(self, item, raw) -> Check:
        constants, probes = raw
        problems, prints = [], []
        for algebra, (rc, out, _) in constants:
            problems += oracles.constants_problems(algebra, rc, out, CONSTANTS_TOL)
            prints.append(out)
        for entry, res, fd in probes:
            label = f"{entry.family} n={entry.n}"
            problems += oracles.fd_problems(label, (res.s1, res.s2, res.s3), res.scales, fd)
            problems += oracles.s3_problems(entry.family, entry.n, str(res.s3))
            if str(res.verdict) != "NotLocalMax":
                problems.append(f"{label}: verdict {res.verdict}")
            prints.append(f"{label} {res.s3} " + " ".join(f"{float(v):.9e}" for v in fd))
        return Check(problems, len(constants) + len(probes), _sha("\n".join(prints)))


WORKLOADS = {w.name: w for w in (Report, Search, Flow, Oracles)}
