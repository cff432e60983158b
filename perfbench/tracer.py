"""Spans and call counts around homscal's public functions, from outside.

The tracer replaces each target at every binding its callers look up: a
module-level function is swapped in every loaded homscal module that holds
it (``chart`` and ``cli`` import ``classify`` and friends by name), a method
on its class.  A target missing from the code is recorded as absent.

Each call records a span (name, start, end, parent).  Self time is the span's
duration minus what its children cover, aggregated online per name, so a run
of millions of calls keeps only a bounded sample of raw spans.  A span opened
on another thread with nothing open there (``report``'s thread pool) takes
the home thread's innermost span as parent.  Those threads share the
interpreter lock, so their contributions are scaled by (union of their
intervals / sum of their durations); all self times then still add up to the
wall time of the outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


@dataclass(frozen=True)
class Target:
    """`qualname` inside homscal.`module`, recorded under `name`.

    hook(counters, result) may add counters derived from the return value.
    """

    module: str
    qualname: str
    name: str
    hook: "Callable | None" = None


def _count_converged(counters, result):
    counters["chart.newton_critical.converged"] += result is not None


def _count_exact(counters, result):
    counters["probe.directional_derivatives.exact"] += result.mode == "exact"


def _count_flow(counters, result):
    counters["flow.accepted_steps"] += len(result.values) - 1
    counters[f"flow.stop.{result.reason}"] += 1


TARGETS = [
    Target("signomial", "Signomial.partial", "signomial.partial"),
    Target("signomial", "Signomial.eval_float", "signomial.eval_float"),
    Target("signomial", "Signomial.eval_abs", "signomial.eval_abs"),
    Target("signomial", "Signomial.eval_exact", "signomial.eval_exact"),
    Target("signomial", "Signomial.substitute_monomial", "signomial.substitute_monomial"),
    Target("space", "HomogeneousSpace.scalar_curvature", "space.scalar_curvature"),
    Target("space", "space_from_dict", "space.space_from_dict"),
    Target("space", "gradient", "space.gradient"),
    Target("space", "hessian", "space.hessian"),
    Target("chart", "restrict", "chart.restrict"),
    Target("chart", "SliceChart.gradient_values", "chart.gradient_values"),
    Target("chart", "SliceChart.hessian_values", "chart.hessian_values"),
    Target("chart", "SliceChart.gradient_scale", "chart.gradient_scale"),
    Target("chart", "jacobi_eigh", "chart.jacobi_eigh"),
    Target("chart", "classify", "chart.classify"),
    Target("chart", "kernel_basis", "chart.kernel_basis"),
    Target("chart", "newton_critical", "chart.newton_critical", _count_converged),
    Target("chart", "find_critical_points", "chart.find_critical_points"),
    Target("catalog", "build", "catalog.build"),
    Target("catalog", "default_entries", "catalog.default_entries"),
    Target("catalog", "load_custom", "catalog.load_custom"),
    Target("probe", "directional_derivatives", "probe.directional_derivatives", _count_exact),
    Target("probe", "probe_chart", "probe.probe_chart"),
    Target("probe", "improving_offset", "probe.improving_offset"),
    Target("probe", "fd_check_auto", "probe.fd_check_auto"),
    Target("probe", "fd_check", "probe.fd_check"),
    Target("probe", "suggest_fd_step", "probe.suggest_fd_step"),
    Target("probe", "PartialLattice.get", "probe.PartialLattice.get"),
    Target("flow", "integrate_ascent", "flow.integrate_ascent", _count_flow),
    Target("flow", "_Compiled.value", "flow._Compiled.value"),
    Target("flow", "_Compiled.grad", "flow._Compiled.grad"),
    Target("lie_constants", "orthonormalize", "lie_constants.orthonormalize"),
    Target("lie_constants", "structural_constants", "lie_constants.structural_constants"),
    Target("lie_constants", "su2_abstract_table", "lie_constants.tables"),
    Target("lie_constants", "su_n_table", "lie_constants.tables"),
    Target("lie_constants", "so8_table", "lie_constants.tables"),
    Target("cli", "main", "cli.main"),
    Target("cli", "probe_record", "cli.probe_record"),
]


class _Frame:
    __slots__ = ("name", "start", "child_ns", "cross", "span_id")

    def __init__(self, name, span_id):
        self.name = name
        self.start = 0
        self.child_ns = 0
        self.cross = None  # [(start, end, stats, counters)] from other threads
        self.span_id = span_id


def _new_stats():
    return defaultdict(lambda: [0, 0, 0])  # name -> [calls, self_ns, incl_ns]


class Tracer:
    """Per-name calls, self time and inclusive time, plus hook counters."""

    def __init__(self, keep_spans: int = 0):
        self.stats = _new_stats()
        self.counters = defaultdict(int)
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent id, thread)
        self.absent: list[str] = []
        self._span_budget = keep_spans
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = threading.current_thread()
        self._home_stack: list[_Frame] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _state(self):
        """(stack, stats, counters) of the calling thread."""
        if threading.current_thread() is self._home:
            return self._home_stack, self.stats, self.counters
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.stats, local.counters = [], _new_stats(), defaultdict(int)
        return local.stack, local.stats, local.counters

    def span(self, name: str, hook, fn: Callable, args=(), kwargs=None):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        stack, stats, counters = self._state()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._home_stack and self._home_stack:
            parent = self._home_stack[-1]
        span_id = -1
        if self._span_budget > 0:
            self._span_budget -= 1
            span_id = next(self._ids)
        frame = _Frame(name, span_id)
        stack.append(frame)
        frame.start = perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
            if hook is not None:
                hook(counters, result)
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - frame.start
            self_ns = dur - frame.child_ns
            if frame.cross:
                self_ns -= self._merge_cross(frame, end)
            row = stats[name]
            row[0] += 1
            row[1] += self_ns
            row[2] += dur
            if span_id >= 0:
                self.spans.append((
                    span_id, name, frame.start, end,
                    None if parent is None else parent.span_id,
                    threading.current_thread().name,
                ))
            if stack:
                parent.child_ns += dur
            elif stack is not self._home_stack:
                self._hand_off(parent, frame.start, end)
        return result

    def _hand_off(self, parent, start: int, end: int) -> None:
        """The outermost span of another thread closed: pass its totals on."""
        local = self._local
        stats, counters = local.stats, local.counters
        local.stats, local.counters = _new_stats(), defaultdict(int)
        if parent is None:  # nothing open on the home thread to share time with
            self._merge(stats, counters, 1.0)
            return
        with self._lock:
            if parent.cross is None:
                parent.cross = []
            parent.cross.append((start, end, stats, counters))

    def _merge_cross(self, frame: _Frame, end: int) -> int:
        """Merge other threads' children; return the wall time they cover."""
        covered, cur_s, cur_e = 0, None, None
        for s, e in sorted((max(s, frame.start), min(e, end)) for s, e, _, _ in frame.cross):
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        total = sum(e - s for s, e, _, _ in frame.cross)
        scale = covered / total if total else 1.0
        for _, _, stats, counters in frame.cross:
            self._merge(stats, counters, scale)
        frame.cross = None
        return covered

    def _merge(self, stats, counters, scale: float) -> None:
        for key, value in counters.items():
            self.counters[key] += value
        for name, (calls, self_ns, incl_ns) in stats.items():
            row = self.stats[name]
            row[0] += calls
            row[1] += self_ns * scale
            row[2] += incl_ns * scale

    # -- patching ---------------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target found in the loaded homscal package."""
        self._home = threading.current_thread()
        self.absent = []
        modules = [m for k, m in list(sys.modules.items())
                   if k == "homscal" or k.startswith("homscal.")]
        for target in targets:
            where = f"{target.module}.{target.qualname}"
            try:
                module = importlib.import_module(f"homscal.{target.module}")
            except ImportError:
                self.absent.append(where)
                continue
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(where)
                continue
            wrapper = self._wrapper(target, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrapper(self, target: Target, original):
        span, name, hook = self.span, target.name, target.hook

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return span(name, hook, original, args, kwargs)

        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
