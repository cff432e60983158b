"""The tracer: repeatable counts, self times that add up, refactor tolerance."""

import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import tracer as tracing
import workloads

ROOT = run.ROOT


def traced_counts(hs, workdir, workload, seed, cycles):
    wl = workloads.WORKLOADS[workload](hs, seed, workdir)
    wl.trace_cycles = cycles
    traced, untraced, tr, _ = run.trace(wl, seconds=0.0)
    assert traced.failures == [] and untraced.failures == []
    accounted = sum(row[1] for row in tr.stats.values())
    assert accounted == pytest.approx(tr.stats["bench.op"][2], rel=1e-9)
    rows = run.per_layer(tr, traced, untraced)
    return {name: value for name, value, _ in rows if name.endswith(".calls")}, dict(tr.counters)


@pytest.mark.parametrize("workload, cycles", [("report", 1), ("search", 1)])
def test_two_traced_runs_give_identical_calls(hs, workdir, workload, cycles):
    first = traced_counts(hs, workdir, workload, 7, cycles)
    second = traced_counts(hs, workdir, workload, 7, cycles)
    assert first == second
    assert first[0]["chart.classify.calls"] > 0


def test_search_runs_the_multistart_twice_per_found_op(hs, workdir):
    calls, _ = traced_counts(hs, workdir, "search", 5, 1)
    # first op of the pool is a flag space, whose search always finds (1)
    assert calls["chart.find_critical_points.calls"] in (1.5, 2.0)


def test_bindings_imported_by_name_are_wrapped_and_restored(hs):
    tr = tracing.Tracer()
    original = hs.cli.classify
    tr.install()
    try:
        assert hs.cli.classify is not original
        assert hs.catalog.chart_mod.classify is hs.cli.classify
    finally:
        tr.uninstall()
    assert hs.cli.classify is original
    assert tr.absent == []


def test_report_workers_option_is_seen(hs):
    assert "--workers" in run.report_options()


def test_absent_target_is_recorded_not_fatal(hs):
    tr = tracing.Tracer()
    tr.install(tracing.TARGETS + [
        tracing.Target("space", "gone_function", "space.gone"),
        tracing.Target("flow", "_Gone.grad", "flow._Gone.grad"),
        tracing.Target("no_such_module", "f", "x.f"),
    ])
    tr.uninstall()
    assert tr.absent == ["space.gone_function", "flow._Gone.grad", "no_such_module.f"]


def test_thread_spans_add_up_to_wall_time():
    tr = tracing.Tracer(keep_spans=100)

    def fan_out():
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(lambda _: tr.span("worker", None, time.sleep, (0.02,)), range(6)))

    tr.span("home", None, fan_out)
    total = sum(row[1] for row in tr.stats.values())
    assert total == pytest.approx(tr.stats["home"][2], rel=1e-9)
    assert tr.stats["worker"][0] == 6
    parents = {s[0]: s for s in tr.spans}
    home_id = next(s[0] for s in tr.spans if s[1] == "home")
    assert all(s[4] == home_id for s in tr.spans if s[1] == "worker")
    assert all(s[4] in parents or s[4] is None for s in tr.spans)


def test_bare_checkout_fails_without_a_result(workdir):
    bare = Path(workdir)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
