"""homscal benchmark: one workload, seeded inputs, checked outputs, metrics.

    python3 perfbench/run.py --workload {report,search,flow,oracles} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; homscal is imported from ./src.  With
--trace 0 the loop runs whole cycles of ops for S seconds and prints the
end-to-end metrics.  With --trace 1 it alternates untraced and traced passes
over the workload's fixed trace set for S seconds and prints the per-layer
metrics; tracing wraps every homscal target (see tracer.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Details (op times, fingerprints, a sample of raw spans) go to
perfbench/out/.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy loads: one client, one process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 9
# Times are calibrated against a fixed reference task run after every op
# and set-up: calibrated = raw * REF_NOMINAL_S / mean reference run over
# the samples taken after the CAL_NEIGHBOURS ops on either side.  A shared
# host's speed flips between states about 1.7x apart, each lasting from
# 50 ms to seconds, so raw times drift by 20% and more between runs; the
# ratio drifts far less.  Twenty-one samples follow the host over a few
# seconds where ops are short and cover the whole run where they take
# seconds each, whose single samples are too short to stand for them.
REF_NOMINAL_S = 0.005
CAL_NEIGHBOURS = 10
FINGERPRINT_OPS = 16
KEEP_SPANS = 20000
MODULES = ("signomial", "space", "catalog", "chart", "probe", "flow", "lie_constants", "cli")


def reference_work():
    """A fixed mix of what homscal spends time on: Fractions, hashing, small numpy."""
    acc = Fraction(0)
    for i in range(1, 50):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    terms = {}
    for i in range(500):
        key = ((i % 7, Fraction(i % 5, 3)), (i % 3, Fraction(1, 1 + i % 4)))
        terms[key] = terms.get(key, 0.0) + float(i) ** 0.5
    m = np.eye(3) + 0.1
    for _ in range(20):
        m = np.linalg.solve(m + np.eye(3), m) @ m.T + np.eye(3)
        m /= np.abs(m).max()
    return acc, len(terms), float(m.sum())


class Reference:
    """Reference-task samples: how many runs each made and how long they took."""

    def __init__(self):
        self.runs, self.spent = [], []

    @property
    def times(self) -> list:
        """Mean duration of one run, per sample."""
        return [s / r for s, r in zip(self.spent, self.runs)]

    def sample(self, count: int = 1) -> None:
        """Run the task `count` times as one sample."""
        t0 = perf_counter()
        for _ in range(count):
            reference_work()
        self.spent.append(perf_counter() - t0)
        self.runs.append(count)

    def calibrate(self, raw) -> list:
        """raw[i] is followed by sample i; scale each by REF_NOMINAL_S over
        the mean run of the samples within CAL_NEIGHBOURS of it."""
        out = []
        for i, t in enumerate(raw):
            lo, hi = max(0, i - CAL_NEIGHBOURS), i + CAL_NEIGHBOURS + 1
            out.append(t * REF_NOMINAL_S * sum(self.runs[lo:hi]) / sum(self.spent[lo:hi]))
        return out


def reference_count(op_s: float) -> int:
    """Reference runs after an op: about 5% of its time, so that the
    samples cover the run in proportion to its ops."""
    return max(1, min(50, int(0.05 * op_s / REF_NOMINAL_S)))


def fresh_import():
    """Import homscal from ./src as a user's process would, even if loaded before."""
    for key in [k for k in sys.modules if k == "homscal" or k.startswith("homscal.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    hs = SimpleNamespace(**{m: importlib.import_module(f"homscal.{m}")
                            for m in ("cli", "catalog", "flow", "probe")})
    if not Path(hs.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"homscal was imported from {hs.cli.__file__}, not from {SRC}")
    return hs


def setup(workload_cls, seed: int, workdir: str):
    """Median calibrated time of SETUP_REPS fresh imports plus input builds,
    calibrated against the reference samples taken between them."""
    raw, ref = [], Reference()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        wl = workload_cls(fresh_import(), seed, workdir)
        raw.append(perf_counter() - t0)
        ref.sample()
    return wl, statistics.median(ref.calibrate(raw)), {"raw": raw, "refs": ref.times}


class Loop:
    """Closed loop over ops; collects times, checks and fingerprints."""

    def __init__(self, wl, tracer=None):
        self.wl, self.tracer = wl, tracer
        self.raw, self.ref, self.steps, self.failures = [], Reference(), 0, []
        self.fingerprints, self.outcomes, self.prefix_outcomes = [], {}, {}

    @property
    def times(self) -> list:
        return self.ref.calibrate(self.raw)

    def op(self, item) -> None:
        wl, tracer = self.wl, self.tracer
        t0 = perf_counter()
        try:
            raw = wl.run(item) if tracer is None else tracer.span("bench.op", None, wl.run, (item,))
        except Exception:
            error = traceback.format_exc(limit=-4)
        else:
            error = None
        self.raw.append(perf_counter() - t0)
        self.ref.sample(reference_count(self.raw[-1]))
        if error is None:
            try:
                error = self._check(item, raw)
            except Exception:
                error = "check: " + traceback.format_exc(limit=-4)
        if error:
            self.failures.append(error)

    def _check(self, item, raw) -> str:
        check = self.wl.check(item, raw)
        self.steps += check.steps
        self.outcomes[check.outcome] = self.outcomes.get(check.outcome, 0) + 1
        if len(self.fingerprints) < FINGERPRINT_OPS:
            self.fingerprints.append(check.fingerprint)
            self.prefix_outcomes[check.outcome] = self.prefix_outcomes.get(check.outcome, 0) + 1
        return "; ".join(check.problems)

    def run_for(self, seconds: float) -> int:
        """Whole cycles until `seconds` have passed; returns the cycle count."""
        start, done = perf_counter(), 0
        for cycle in self.wl.cycles():
            for item in cycle:
                self.op(item)
            done += 1
            if perf_counter() - start >= seconds:
                return done

    def run_items(self, items) -> None:
        for item in items:
            self.op(item)


def tail(times):
    """(value, percentile): the highest of p90, p99 and p99.9 with at least
    10 samples beyond it, or the maximum below 100 samples."""
    ordered = sorted(times)
    n = len(ordered)
    pct = max((p for p in (90.0, 99.0, 99.9) if n * (100 - p) / 100 >= 10), default=100.0)
    return ordered[min(n - 1, math.ceil(n * pct / 100) - 1)], pct


def fingerprint(loop) -> str:
    return hashlib.sha256("\n".join(loop.fingerprints).encode()).hexdigest()


def end_to_end(loop, setup_s) -> list:
    """(name, value, unit, note) rows; the note carries the sample count."""
    times = loop.times
    n, total = len(times), sum(times)
    tail_s, tail_pct = tail(times)
    failed = len(loop.failures)
    return [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPS} set-ups"),
        ("op_s.p50", statistics.median(times), "s",
         f"n={n}, raw {statistics.median(loop.raw):.4g} s, reference {statistics.median(loop.ref.times) * 1e3:.3f} ms"),
        ("op_s.tail", tail_s, "s", f"p{tail_pct:.1f}, n={n}"),
        ("ops_per_s", n / total, "1/s", f"n={n}"),
        ("ok_share", (n - failed) / n, "ratio", f"failed_share={failed / n:.4g}, n={n}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "n=1"),
        ("steps_per_s", loop.steps / total, "1/s", f"{loop.steps} steps, n={n}"),
    ]


def per_layer(tracer, traced, untraced) -> list:
    """Per-op counts and self times from a traced loop over the trace set."""
    ops = len(traced.raw)
    stats, counters = tracer.stats, tracer.counters
    calls = lambda name: stats[name][0] if name in stats else 0
    self_ms = lambda name: (stats[name][1] if name in stats else 0) / 1e6 / ops
    ratio = lambda a, b: a / b if b else 0.0
    rows = []
    for name in (
        "signomial.partial", "signomial.eval_float", "signomial.eval_abs", "signomial.eval_exact",
        "chart.restrict", "catalog.build", "chart.gradient_values", "chart.hessian_values",
        "chart.jacobi_eigh", "chart.newton_critical", "chart.find_critical_points",
        "chart.classify", "probe.directional_derivatives", "probe.fd_check_auto",
        "flow.integrate_ascent", "cli.probe_record",
    ):
        rows.append((f"{name}.calls", calls(name) / ops, "calls/op"))
        rows.append((f"{name}.self_ms", self_ms(name), "ms/op"))
    for name in ("chart.gradient_scale", "chart.kernel_basis", "probe.fd_check"):
        rows.append((f"{name}.calls", calls(name) / ops, "calls/op"))
    for name in (
        "space.scalar_curvature", "catalog.load_custom", "probe.improving_offset",
        "probe.suggest_fd_step", "lie_constants.orthonormalize",
        "lie_constants.structural_constants", "lie_constants.tables", "cli.main",
    ):
        rows.append((f"{name}.self_ms", self_ms(name), "ms/op"))
    steps = counters["flow.accepted_steps"]
    flow_ns = stats["flow.integrate_ascent"][2] if "flow.integrate_ascent" in stats else 0
    rows += [
        ("chart.newton_critical.converged_ratio",
         ratio(counters["chart.newton_critical.converged"], calls("chart.newton_critical")), "ratio"),
        ("probe.directional_derivatives.exact_share",
         ratio(counters["probe.directional_derivatives.exact"],
               calls("probe.directional_derivatives")), "ratio"),
        ("flow.accepted_steps", steps / ops, "steps/op"),
        ("flow.us_per_step", ratio(flow_ns / 1e3, steps), "us"),
    ]
    for reason in ("budget", "left-region", "gradient-small"):
        rows.append((f"flow.stop.{reason}", counters[f"flow.stop.{reason}"] / ops, "1/op"))
    layer_ms = {m: 0.0 for m in MODULES}
    for name, (_, self_ns, _) in stats.items():
        module = name.split(".")[0]
        if module in layer_ms:
            layer_ms[module] += self_ns / 1e6 / ops
    rows += [(f"{m}.self_ms", v, "ms/op") for m, v in layer_ms.items()]
    op_ms = stats["bench.op"][2] / 1e6 / ops
    rows += [
        ("bench.self_ms", self_ms("bench.op"), "ms/op"),
        ("trace.op_ms", op_ms, "ms/op"),
        ("trace.overhead_share", sum(traced.times) / sum(untraced.times) - 1.0, "ratio"),
    ]
    return rows


def env_line(args, loop, extra) -> str:
    return (
        f"env: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
        f"(OPENBLAS/OMP/MKL_NUM_THREADS) seed={args.seed} workload={args.workload} "
        f"trace={args.trace} seconds={args.seconds} ops={len(loop.raw)} {extra}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homscal" / "__init__.py").is_file():
        print(f"error: no homscal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    wl, setup_s, setup_times = setup(workloads.WORKLOADS[args.workload], args.seed, workdir)
    detail = {"args": vars(args), "setup_times": setup_times}
    if args.trace == 0:
        loop = Loop(wl)
        cycles = loop.run_for(args.seconds)
        rows = end_to_end(loop, setup_s)
        print(f"perfbench {args.workload}: end-to-end, {cycles} whole cycles")
        for name, value, unit, note in rows:
            print(f"  {name:<12} {value:12.6g} {unit:<6} ({note})")
        extra = f"cycles={cycles} setup_reps={SETUP_REPS}"
        correct, attempted = not loop.failures, len(loop.raw)
    else:
        loop, untraced, tr, extra = trace(wl, args.seconds)
        rows = per_layer(tr, loop, untraced)
        accounted = sum(row[1] for row in tr.stats.values())
        op_ns = tr.stats["bench.op"][2]
        balance = abs(accounted - op_ns) / op_ns
        print(f"perfbench {args.workload}: per layer, {extra}")
        for name, value, unit in rows:
            print(f"  {name:<44} {value:12.6g} {unit}")
        layers = sorted((v, n[:-len(".self_ms")]) for n, v, _ in rows
                        if n.endswith(".self_ms") and n.count(".") == 1)
        print("top layers by self time: "
              + ", ".join(f"{n} {v:.4g} ms/op" for v, n in layers[::-1][:3]))
        print(f"self times + bench remainder = {accounted / 1e6:.3f} ms, traced op time = "
              f"{op_ns / 1e6:.3f} ms (relative gap {balance:.2e})")
        print("absent targets: " + (", ".join(tr.absent) or "none"))
        detail.update(absent=tr.absent, spans=tr.spans, untraced_raw=untraced.raw,
                      stats=tr.stats, counters=tr.counters)
        loop.failures += untraced.failures
        correct = not loop.failures and balance < 1e-6
        attempted = len(loop.raw) + len(untraced.raw)
    print(f"outcomes: {json.dumps(loop.outcomes, sort_keys=True)}; first "
          f"{len(loop.fingerprints)} ops: {json.dumps(loop.prefix_outcomes, sort_keys=True)}")
    print(f"fingerprint: {fingerprint(loop)} (first {len(loop.fingerprints)} ops)")
    for failure in loop.failures[:5]:
        print("FAILED: " + failure.strip().replace("\n", " | ")[:400])
    print(env_line(args, loop, extra))
    detail.update(raw=loop.raw, refs=loop.ref.times, ref_runs=loop.ref.runs,
                  fingerprints=loop.fingerprints, failures=loop.failures)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, default=str) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, *_ in rows},
    }))
    return 0


def trace(wl, seconds: float):
    """Alternate untraced and traced passes over the trace set for `seconds`."""
    items = [item for _, cycle in zip(range(wl.trace_cycles), wl.cycles()) for item in cycle]
    tr = tracing.Tracer(keep_spans=KEEP_SPANS)
    untraced, traced = Loop(wl), Loop(wl, tr)
    repeats, start = 0, perf_counter()
    while repeats == 0 or perf_counter() - start < seconds:
        untraced.run_items(items)
        tr.install()
        try:
            traced.run_items(items)
        finally:
            tr.uninstall()
        repeats += 1
    if "--workers" not in report_options():
        tr.absent.append("cli report --workers")
    extra = f"trace_set={len(items)} repeats={repeats} setup_reps={SETUP_REPS}"
    return traced, untraced, tr, extra


def report_options() -> set:
    """Option strings `homscal report` accepts (empty if the parser moved)."""
    cli = sys.modules["homscal.cli"]
    if not hasattr(cli, "build_parser"):
        return set()
    for action in cli.build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction) and "report" in action.choices:
            return {o for a in action.choices["report"]._actions for o in a.option_strings}
    return set()


if __name__ == "__main__":
    sys.exit(main())
