"""The fault-free tick loop of :class:`~repro.workload.sut.SystemUnderTest`
in C.

:func:`run` executes one ``SystemUnderTest.run`` in ``tick.c``, which is
compiled into the :mod:`repro.cpu.native` module (one build, one cache
key, one :data:`~repro.cpu.native.REASON`).  The arrivals, web, db and
requests streams live in C for the whole run and are written back to
the run's :class:`~repro.util.rng.RngFactory` at the end, so the C loop
leaves every stream where the Python loop would.

The collector stays in Python.  The kernel returns at each GC trigger;
:func:`run` copies the heap's byte counts into the
:class:`~repro.jvm.heap.FlatHeap`, runs ``collector.collect``, copies
them back, sets the pause and resumes the kernel.  It also returns to
hand over response samples before its buffer could fill, and before an
allocation that would overflow the heap, which :func:`run` then repeats
on the ``FlatHeap`` so it raises the Python loop's error.

The Python loop in ``sut.py`` stays the specification.  It runs, and
:data:`DECLINED` counts why, for a run with faults, retry or brownout,
under an objprof heap ledger (it hooks every allocation), for sizes
the kernel does not hold, under engine ``reference`` and when the
native build is unavailable.
"""

from __future__ import annotations

import collections
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.cpu import native
from repro.cpu.engine import default_engine
from repro.jvm.gc import MarkSweepCompactCollector
from repro.jvm.heap import FlatHeap
from repro.obs import objprof as _objprof
from repro.util.units import KB, MB
from repro.workload.appserver import AppServer
from repro.workload.database import Database
from repro.workload.disk import DiskModel
from repro.workload.driver import Driver
from repro.workload.faults import ResilienceTracker
from repro.workload.timeline import COMPONENTS, RunTimeline, TickRecord
from repro.workload.webserver import WebServer

if TYPE_CHECKING:
    from repro.workload.sut import RunResult

#: Reasons a run declined the C loop, with counts (this process only);
#: such runs ran the Python loop.  Slices that declined the window
#: kernel are counted apart, in :data:`repro.cpu.native.DECLINED`.
DECLINED: "collections.Counter[str]" = collections.Counter()

#: Streams the C loop owns for the run, by their ``sut_t`` fields.
_STREAMS = (
    ("arrivals", "workload.arrivals"),
    ("web", "workload.web"),
    ("db", "workload.db"),
    ("requests", "workload.requests"),
)
# Fixed sizes of sut_t: per-type arrays, and a bound on the request
# slots (one per request admission can let in).
_MAX_TYPES = 16
_MAX_IN_FLIGHT = 1 << 20
# C compares heap byte counts as doubles, exact below 2**53.
_MAX_EXACT = 1 << 53
# Response samples per type the kernel buffers beyond one tick's worth.
_RESPONSE_ROOM = 1 << 12
_ZERO = 0.0


def decline_reason(config) -> Optional[str]:
    """Why ``config``'s run cannot use the C loop (None if it can)."""
    if default_engine() == "reference":
        return "engine reference"
    if native.load() is not None:
        return "the native build is unavailable"
    if config.faults.is_active:
        return "faults, retry or brownout are active"
    if _objprof._ACTIVE is not None:
        return "an objprof heap ledger is active"
    cfg, jvm = config.workload, config.jvm
    capacity = jvm.heap_mb * MB
    capacity_ms = config.machine.topology.n_cores * cfg.tick_s * 1000.0
    specs = cfg.transactions
    fits = (
        isinstance(cfg.tick_s, float)
        and all(
            type(v) is int
            for v in (cfg.max_in_flight, cfg.thread_pool, cfg.disk.n_disks, capacity)
        )
        and len(specs) <= _MAX_TYPES
        and cfg.max_in_flight <= _MAX_IN_FLIGHT
        and capacity < _MAX_EXACT
        and jvm.live_set_mb * MB < _MAX_EXACT
        # A tick's allocation stays an exact int64.
        and all(
            2.0 * capacity_ms * s.alloc_kb * KB / s.total_cpu_ms < _MAX_EXACT
            for s in specs
        )
    )
    return None if fits else "a size does not fit the kernel's fixed capacity"


def run(sut) -> Optional["RunResult"]:
    """Run ``sut`` in C; None (and counted) when it declines.

    A declined run has touched nothing: the caller runs the Python
    loop.
    """
    reason = decline_reason(sut.config)
    if reason is not None:
        DECLINED[reason] += 1
        return None
    from repro.workload import sut as _sut

    config = sut.config
    cfg, jvm = config.workload, config.jvm
    specs = cfg.transactions
    n, tick_s = len(specs), cfg.tick_s
    n_ticks = int(round(cfg.duration_s / tick_s))
    rngs = {name: sut.rngs.stream(name) for _, name in _STREAMS}
    driver = Driver(cfg, rngs["workload.arrivals"])
    appserver = AppServer(cfg, config.machine.topology.n_cores)
    database = Database(cfg, rngs["workload.db"])
    webserver = WebServer(rngs["workload.web"])
    disk = DiskModel(cfg.disk, tick_s)
    heap = FlatHeap(jvm)
    collector = MarkSweepCompactCollector(jvm.gc, sut.rngs.stream("jvm.gc"))

    ffi, lib = native.FFI, native.LIB
    t = ffi.new("sut_t *")
    t.n_types, t.n_ticks = n, n_ticks
    t.tick_s, t.tick_ms = tick_s, tick_s * 1000.0
    t.capacity_ms = config.machine.topology.n_cores * t.tick_ms
    t.ramp_up_s, t.ramp_down_s, t.duration_s = cfg.ramp_up_s, cfg.ramp_down_s, cfg.duration_s
    t.rate[0:n] = driver._rates
    t.spec_cpu_ms[0:n] = [spec.total_cpu_ms for spec in specs]
    # As SystemUnderTest.run computes it.
    t.alloc_per_cpu_ms[0:n] = [spec.alloc_kb * KB / spec.total_cpu_ms for spec in specs]
    t.db_queries[0:n] = [spec.db_queries for spec in specs]
    t.overhead_ms[0:n] = [webserver.mean_overhead_ms(spec) for spec in specs]
    for k, proportions in enumerate(appserver._proportions):
        t.prop[k][0:len(COMPONENTS)] = proportions
    t.base_miss = database._base_miss
    t.live_target = jvm.live_set_mb * MB
    t.live_floor, t.live_ramp_s = _sut.LIVE_FLOOR, _sut.LIVE_RAMP_S
    t.live_per_request, t.live_headroom = _sut.LIVE_PER_REQUEST, _sut.LIVE_HEADROOM
    t.trigger_free, t.capacity_bytes = heap._trigger_free, heap.capacity_bytes
    t.max_in_flight, t.thread_pool = cfg.max_in_flight, cfg.thread_pool
    t.disk_tick_ms, t.service_ms = disk.tick_ms, cfg.disk.service_ms
    t.n_disks = cfg.disk.n_disks
    for field, name in _STREAMS:
        native.set_mt(ffi.addressof(t, field), rngs[name].getstate())

    slots = max(1, cfg.max_in_flight)
    rows = max(1, n_ticks)
    keep = [ffi.new("treq_t[]", slots)]
    t.req = keep[0]
    t.free_slot = _buffer(keep, "int32_t[]", list(range(slots)))
    t.n_free = slots
    for field in ("accept", "running", "scratch", "disk", "done"):
        setattr(t, field, _buffer(keep, "int32_t[]", slots))
    for field, ctype, size in (
        ("out_arrivals", "int32_t[]", rows * n),
        ("out_completions", "int32_t[]", rows * n),
        ("out_comp", "double[]", rows * len(COMPONENTS)),
        ("out_by_type", "double[]", rows * n),
        ("out_gc", "double[]", rows),
        ("out_idle", "double[]", rows),
        ("out_io_waiting", "int64_t[]", rows),
        ("out_heap_used", "int64_t[]", rows),
        ("out_queue", "int64_t[]", rows),
    ):
        setattr(t, field, _buffer(keep, ctype, size))
    t.resp_cap = slots + _RESPONSE_ROOM
    t.resp_tick = _buffer(keep, "int32_t[]", n * t.resp_cap)
    t.resp_rt = _buffer(keep, "double[]", n * t.resp_cap)

    gc_events = []
    responses: List[List[Tuple[float, float]]] = [[] for _ in specs]
    # Each tick's completion time, one float shared by its samples as
    # in the Python loop (one object per sample would cost memory).
    done_s = [tick * tick_s + tick_s for tick in range(n_ticks)]
    try:
        while True:
            status = lib.sut_run(t)
            _drain(t, done_s, responses)
            heap.live_bytes, heap.allocated_since_gc = t.live, t.alloc
            heap.dark_matter_bytes = t.dark
            if status == lib.SUT_DONE:
                break
            if status == lib.SUT_DRAIN:
                continue
            if status == lib.SUT_OVERFLOW:
                heap.allocate(t.pending_alloc)  # raises HeapExhaustedError
                raise RuntimeError("the kernel and FlatHeap disagree on overflow")
            if status == lib.SUT_NOMEM:
                raise MemoryError("tick kernel: I/O threshold allocation failed")
            event = collector.collect(heap, t.tick * tick_s)
            gc_events.append(event)
            t.gc_wall_remaining_ms = event.pause_ms
            t.live, t.alloc = heap.live_bytes, heap.allocated_since_gc
            t.dark = heap.dark_matter_bytes
    finally:
        lib.sut_free(t)
        for field, name in _STREAMS:
            rng = rngs[name]
            rng.setstate(native.get_mt(ffi.addressof(t, field), rng.getstate()))

    ticks = max(0, n_ticks)
    arrivals = ffi.unpack(t.out_arrivals, ticks * n)

    def sums(array, width):
        # A CPU sum that stayed 0.0 (no -0.0 can arise) is one shared
        # float, as the Python loop's untouched accumulators are.
        return [x or _ZERO for x in ffi.unpack(array, ticks * width)]

    timeline = RunTimeline(tick_s, [s.name for s in specs], config.machine.topology.n_cores)
    timeline.records = [
        TickRecord(i, *fields)
        for i, fields in enumerate(
            zip(
                _rows(arrivals, n),
                _rows(ffi.unpack(t.out_completions, ticks * n), n),
                _rows(sums(t.out_comp, len(COMPONENTS)), len(COMPONENTS)),
                _rows(sums(t.out_by_type, n), n),
                ffi.unpack(t.out_gc, ticks),
                sums(t.out_idle, 1),
                ffi.unpack(t.out_io_waiting, ticks),
                ffi.unpack(t.out_heap_used, ticks),
                ffi.unpack(t.out_queue, ticks),
            )
        )
    ]
    tracker = ResilienceTracker(n)
    tracker.offered = [sum(arrivals[k::n]) for k in range(n)]
    database.queries_issued, database.buffer_misses = t.queries, t.misses
    disk.busy_ms, disk.wait_samples = t.disk_busy, t.wait_samples
    return _sut.RunResult(
        config=config,
        timeline=timeline,
        gc_events=gc_events,
        responses=responses,
        rejected=list(t.rejected[0:n]),
        db_hit_ratio=database.observed_hit_ratio,
        disk_utilization=disk.utilization(n_ticks),
        disk_mean_queue=disk.mean_queue_length(n_ticks),
        final_heap_used=heap.used_bytes,
        final_dark_matter=heap.dark_matter_bytes,
        resilience=tracker.freeze(),
    )


def _buffer(keep: list, ctype: str, init):
    """A new C array, kept alive in ``keep`` for the run."""
    buf = native.FFI.new(ctype, init)
    keep.append(buf)
    return buf


def _rows(flat: list, width: int):
    """``flat`` cut into tuples of ``width``."""
    return zip(*[iter(flat)] * width)


def _drain(t, done_s: List[float], responses: List[List[Tuple[float, float]]]) -> None:
    """Move the kernel's buffered response samples into ``responses``."""
    unpack, cap = native.FFI.unpack, t.resp_cap
    for k, samples in enumerate(responses):
        count = t.resp_n[k]
        if count:
            ticks = unpack(t.resp_tick + k * cap, count)
            samples.extend(zip(map(done_s.__getitem__, ticks), unpack(t.resp_rt + k * cap, count)))
            t.resp_n[k] = 0
