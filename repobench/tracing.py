"""The benchmark's span recorder and the layer wrappers of a traced run.

A traced repetition wraps the public calls of each layer from here,
outside ``src/``: the program itself is not edited, and an untraced
repetition runs the original functions.  Every wrapped call records one
span ``[name, start, end, parent]`` on ``time.perf_counter`` (the
system-wide monotonic clock, so spans from forked pool workers share
the parent's timeline).  Spans stay in memory and are summarised once,
when the repetition ends.

A layer's self time is its span time minus the part of that interval
its child spans cover (the union, since pool workers' spans overlap).
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span names, one per wrapped call site; the prefix is the layer.
WORKLOAD_RUN = "workload.run"
WORKLOAD_SERVE = "workload.serve"
JVM_COLLECT = "jvm.collect"
CPU_WINDOW = "cpu.window"
CPU_WARMUP = "cpu.warmup"
CPU_BUILD = "cpu.build"
HPM_SAMPLE = "hpm.sample"
CORE_ANALYSIS = "core.analysis"
CORE_CORRELATION = "core.correlation"
RUNCACHE_LOOKUP = "runcache.get_or_run"
RUNCACHE_PUT = "runcache.put"
EXPERIMENTS_RUN = "experiments.run"
EXPERIMENTS_TASK = "experiments.task"

#: Attribute a pool worker attaches its spans to on the returned
#: sweep record; the parent pops it before anything reads the record.
_WORKER_TRACE_ATTR = "_bench_worker_trace"


class SpanRecorder:
    """Spans and exact counts of one traced repetition, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Per sweep: job count, wall clock and each record's (seconds,
        #: retries), for the ``experiments`` layer.
        self.sweeps: List[dict] = []
        self._stack: List[int] = []
        self._pid = os.getpid()

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def export(self) -> Tuple[List[list], Dict[str, int]]:
        return self.spans, dict(self.counts)

    def in_worker(self) -> bool:
        """True in a pool worker forked from the recording process."""
        return os.getpid() != self._pid

    def clear(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def merge_worker(self, spans: List[list], counts: Dict[str, int]) -> None:
        """Graft a worker's spans under the currently open span."""
        base = len(self.spans)
        anchor = self._stack[-1] if self._stack else -1
        for name, start, end, parent in spans:
            self.spans.append(
                [name, start, end, anchor if parent < 0 else base + parent]
            )
        self.counts.update(counts)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _after_run(rec, args, result, _):
    rec.counts["workload.runs"] += 1
    rec.counts["workload.ticks"] += len(result.timeline)


def _after_serve(rec, args, result, _):
    rec.counts["workload.requests"] += len(result[0])


def _after_collect(rec, args, result, _):
    rec.counts["jvm.collections"] += 1


def _after_window(rec, args, result, _):
    rec.counts["cpu.windows"] += 1
    rec.counts["cpu.instr"] += result.instructions


def _after_campaign(rec, args, result, _):
    rec.counts["hpm.campaigns"] += 1


def _before_lookup(args):
    return args[0].stats.snapshot()


def _after_lookup(rec, args, result, before):
    cache = args[0]
    delta = cache.stats.since(before)
    rec.counts["runcache.hits"] += delta.hits
    rec.counts["runcache.disk_hits"] += delta.disk_hits
    rec.counts["runcache.misses"] += delta.misses
    rec.counts["runcache.write_errors"] += delta.write_errors
    if cache.disk_dir is not None and not delta.write_errors:
        rec.counts["runcache.entries_written"] += delta.misses


def _table():
    """(owner, attribute, span name, after, before) of every wrapped call.

    ``after(rec, args, result, token)`` records the call's exact counts;
    ``before(args)`` returns the token.  The two ``reproduce_all``
    functions get the sweep-specific wrappers of :func:`install`.
    """
    from repro.core.characterization import Characterization, HardwareSummary
    from repro.core.correlation import CpiCorrelationStudy
    from repro.cpu.core_model import CoreModel
    from repro.experiments import reproduce_all
    from repro.hpm.hpmstat import HpmStat
    from repro.jvm.gc import MarkSweepCompactCollector
    from repro.runcache import RunCache
    from repro.workload.appserver import AppServer
    from repro.workload.sut import SystemUnderTest

    return [
        (SystemUnderTest, "run", WORKLOAD_RUN, _after_run, None),
        (AppServer, "serve", WORKLOAD_SERVE, _after_serve, None),
        (MarkSweepCompactCollector, "collect", JVM_COLLECT, _after_collect, None),
        (CoreModel, "execute_window", CPU_WINDOW, _after_window, None),
        (CoreModel, "warm_up", CPU_WARMUP, None, None),
        (Characterization, "core", CPU_BUILD, None, None),
        (Characterization, "group_core", CPU_BUILD, None, None),
        (HpmStat, "sample_group", HPM_SAMPLE, _after_campaign, None),
        (HpmStat, "sample_all", HPM_SAMPLE, _after_campaign, None),
        (Characterization, "run", CORE_ANALYSIS, None, None),
        (CpiCorrelationStudy, "run", CORE_CORRELATION, None, None),
        (HardwareSummary, "from_snapshots", CORE_ANALYSIS, None, None),
        (RunCache, "get_or_run", RUNCACHE_LOOKUP, _after_lookup, _before_lookup),
        (RunCache, "put", RUNCACHE_PUT, None, None),
        (reproduce_all, "run", EXPERIMENTS_RUN, None, None),
        (reproduce_all, "_execute", EXPERIMENTS_TASK, None, None),
    ]


def _function(value) -> Callable:
    """The plain function behind a method, property or classmethod."""
    return getattr(value, "fget", None) or getattr(value, "__func__", None) or value


def is_wrapped(owner, attr: str) -> bool:
    return getattr(_function(owner.__dict__[attr]), "__bench_wrapped__", False)


def wrapped_targets() -> List[Tuple[object, str]]:
    """(owner, attribute) of every call site a traced run wraps."""
    return [(owner, attr) for owner, attr, *_ in _table()]


def _spanned(rec: SpanRecorder, fn: Callable, name: str, after, before) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, args, result, token)
        return result

    wrapper.__bench_wrapped__ = True
    return wrapper


def _lazy_core(rec: SpanRecorder, fget: Callable, name: str, after, before) -> Callable:
    """Only the access that builds the lazily built core is a span."""
    spanned = _spanned(rec, fget, name, after, before)

    @functools.wraps(fget)
    def core(self):
        return spanned(self) if self._core is None else fget(self)

    core.__bench_wrapped__ = True
    return core


def _sweep_task(rec: SpanRecorder, execute: Callable, name: str, after, before) -> Callable:
    """One sweep task.  In a forked pool worker the recorder starts empty
    for the task, and the task's spans ride back on the returned record."""

    @functools.wraps(execute)
    def execute_task(task):
        forked = rec.in_worker()
        if forked:
            rec.clear()
        index = rec.open(name)
        try:
            record = execute(task)
        finally:
            rec.close(index)
        if forked:
            setattr(record, _WORKER_TRACE_ATTR, rec.export())
            rec.clear()
        return record

    execute_task.__bench_wrapped__ = True
    return execute_task


def _sweep(rec: SpanRecorder, sweep: Callable, name: str, after, before) -> Callable:
    """The whole sweep: grafts the workers' spans, keeps the records."""

    @functools.wraps(sweep)
    def run_sweep(*args, **kwargs):
        index = rec.open(name)
        try:
            result = sweep(*args, **kwargs)
            for record in result.records.values():
                shipped = record.__dict__.pop(_WORKER_TRACE_ATTR, None)
                if shipped is not None:
                    rec.merge_worker(*shipped)
        finally:
            rec.close(index)
        rec.sweeps.append(
            {
                "jobs": result.jobs,
                "wall_s": result.total_seconds,
                "tasks": [(r.seconds, r.retries) for r in result.records.values()],
            }
        )
        return result

    run_sweep.__bench_wrapped__ = True
    return run_sweep


_SPECIAL = {EXPERIMENTS_RUN: _sweep, EXPERIMENTS_TASK: _sweep_task}


def install(rec: SpanRecorder) -> None:
    """Wrap every call site of :func:`wrapped_targets` to record into ``rec``."""
    for owner, attr, name, after, before in _table():
        value = owner.__dict__[attr]
        if isinstance(value, property):
            wrapped = property(_lazy_core(rec, value.fget, name, after, before))
        elif isinstance(value, classmethod):
            wrapped = classmethod(_spanned(rec, value.__func__, name, after, before))
        else:
            make = _SPECIAL.get(name, _spanned)
            wrapped = make(rec, value, name, after, before)
        setattr(owner, attr, wrapped)


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------
def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the union its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, _parent) in enumerate(spans):
        kids = [
            (max(lo, start), min(hi, end)) for lo, hi in children.get(index, ())
        ]
        out.append((end - start) - _union_length([k for k in kids if k[1] > k[0]]))
    return out


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def summarize(rec: SpanRecorder, wall_s: float, distinct_entries: int) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``wall_s`` is the traced repetition's timed wall clock;
    ``distinct_entries`` is the number of distinct run-cache entries the
    sweep left on disk (0 off the sweep).
    """
    spans = rec.spans
    selfs = self_times(spans)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    windows_ms: List[float] = []
    for (name, start, end, _parent), self_s in zip(spans, selfs):
        total[name] += end - start
        own[name] += self_s
        if name == CPU_WINDOW:
            windows_ms.append((end - start) * 1000.0)
    c = rec.counts
    ticks = c["workload.ticks"]
    lookups = c["runcache.hits"] + c["runcache.disk_hits"] + c["runcache.misses"]
    tasks = [t for sweep in rec.sweeps for t in sweep["tasks"]]  # (seconds, retries)
    capacity = sum(s["jobs"] * s["wall_s"] for s in rec.sweeps)
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    return {
        "workload.runs": c["workload.runs"],
        "workload.ticks": ticks,
        "workload.requests": c["workload.requests"],
        "workload.run_s": total[WORKLOAD_RUN],
        "workload.serve_s": total[WORKLOAD_SERVE],
        "workload.us_per_tick": 1e6 * total[WORKLOAD_RUN] / ticks if ticks else 0.0,
        "jvm.collections": c["jvm.collections"],
        "jvm.collect_s": total[JVM_COLLECT],
        "cpu.windows": c["cpu.windows"],
        "cpu.instr": c["cpu.instr"],
        "cpu.window_s": total[CPU_WINDOW],
        "cpu.window_ms_p50": statistics.median(windows_ms) if windows_ms else 0.0,
        "cpu.window_ms_p99": _percentile(windows_ms, 0.99),
        "cpu.instr_per_s": (
            c["cpu.instr"] / total[CPU_WINDOW] if total[CPU_WINDOW] else 0.0
        ),
        "cpu.warmup_s": total[CPU_WARMUP],
        "cpu.build_s": own[CPU_BUILD],
        "hpm.campaigns": c["hpm.campaigns"],
        "hpm.self_s": own[HPM_SAMPLE],
        "core.analysis_self_s": own[CORE_ANALYSIS],
        "core.correlation_self_s": own[CORE_CORRELATION],
        "runcache.hits": c["runcache.hits"],
        "runcache.disk_hits": c["runcache.disk_hits"],
        "runcache.misses": c["runcache.misses"],
        "runcache.hit_ratio": (
            (c["runcache.hits"] + c["runcache.disk_hits"]) / lookups if lookups else 0.0
        ),
        "runcache.entries_written": c["runcache.entries_written"],
        "runcache.write_errors": c["runcache.write_errors"],
        "runcache.self_s": own[RUNCACHE_LOOKUP] + own[RUNCACHE_PUT],
        "experiments.tasks": len(tasks),
        "experiments.retries": sum(t[1] for t in tasks),
        "experiments.duplicate_sims": (
            c["runcache.misses"] - distinct_entries if rec.sweeps else 0
        ),
        "experiments.pool_busy_ratio": (
            sum(t[0] for t in tasks) / capacity if capacity else 0.0
        ),
        "experiments.slowest_task_s": max((t[0] for t in tasks), default=0.0),
        "bench.unattributed_ratio": (
            max(0.0, 1.0 - _union_length(roots) / wall_s) if wall_s else 0.0
        ),
    }
