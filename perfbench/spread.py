"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads report search flow oracles \
        --seeds 301-310 --seconds 25 [--trace-seed 101] [--out FILE]

Runs run.py once per workload and seed, one after another, and prints for
every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median, next to the bound in
BENCHMARK.json.  With --trace-seed it also makes one traced run per
workload and records its per-layer metrics and top three layers.  With
--out the summary is written as JSON (perfbench/results/baseline.json
holds one).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("fingerprint: "):
            result["fingerprint"] = line.split()[1]
        elif line.startswith("outcomes: "):
            result["outcomes_first_16_ops"] = line.split("first 16 ops: ")[-1]
        elif line.startswith("top layers by self time: "):
            result["top_layers_by_self_time"] = line.split(": ", 1)[1]
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("301-310"))
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    seed_text = f"{args.seeds[0]}-{args.seeds[-1]}"
    report = {
        "about": (
            f"Untraced runs per workload (seeds {seed_text}, --seconds {args.seconds:g}), one after "
            f"another{f', and one traced run (seed {args.trace_seed})' if args.trace_seed else ''}; "
            f"made with perfbench/spread.py. Host: nproc={len(os.sched_getaffinity(0))}, "
            f"{platform.system()} {platform.machine()}, Python {platform.python_version()}, "
            f"numpy {np.__version__}, BLAS threads 1. spread = (q3 - q1) / median, quartiles as "
            "statistics.quantiles(n=4)."
        ),
        "workloads": {},
    }
    for workload in args.workloads:
        runs = {seed: run_once(workload, seed, args.seconds, 0) for seed in args.seeds}
        metrics = {name: summary([r["metrics"][name]["value"] for r in runs.values()])
                   for name in next(iter(runs.values()))["metrics"]}
        entry = {
            "end_to_end": metrics,
            "correct": [r["correct"] for r in runs.values()],
            "attempted": [r["attempted"] for r in runs.values()],
            "failed": [r["failed"] for r in runs.values()],
            "fingerprints": {str(s): r.get("fingerprint") for s, r in runs.items()},
            "outcomes_first_16_ops": {str(s): r.get("outcomes_first_16_ops") for s, r in runs.items()},
        }
        print(f"{workload}: correct {entry['correct'].count(True)}/{len(runs)}, "
              f"failed {sum(entry['failed'])}, attempted {entry['attempted']}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  above a third of the bound"
            print(f"  {name:<12} median {s['median']:<12.6g} spread {s['spread']:<8.4f} "
                  f"bound {bound}{flag}")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, args.seconds, 1)
            entry[f"trace_seed_{args.trace_seed}"] = {
                "correct": traced["correct"],
                "top_layers_by_self_time": traced.get("top_layers_by_self_time"),
                "per_layer": {k: round(v["value"], 6) for k, v in traced["metrics"].items()},
            }
            print(f"  top layers: {traced.get('top_layers_by_self_time')}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
