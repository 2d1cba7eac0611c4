"""The best-of-N kernel benchmark suite behind ``repro bench``.

Times the same hot kernels as ``benchmarks/test_core_kernels.py`` —
window execution through ``SliceRunner.run_until`` on the session engine,
the array-backed cache, the slot-indexed counter bank — plus the
workload tick loop (``SystemUnderTest.run``), as plain absolute
timings suitable for a *trajectory*: every kernel runs N repetitions
(identical work each time; stateful structures are rebuilt outside the
timed region) and the full repetition sample is recorded,
so downstream consumers (``repro perf-diff``, ``repro perf-gate``) can
separate drift from noise instead of trusting one number.

Single-shot timing was the original sin the observatory fixes: a
one-measurement ``speedup`` moves with scheduler jitter alone.  Here
``best_s`` (the minimum) is the headline — the least-perturbed
observation of the same deterministic work — and ``spread`` records
how noisy the repetitions were.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional

from repro.util.stats import percentile, relative_spread

#: The benchmark family stamped into envelopes and history records.
SUITE_KIND = "perf_suite"

#: Best-of-N policy floor: fewer repetitions cannot support the
#: Mann-Whitney comparison the gate runs.
MIN_REPETITIONS = 5


def best_of(
    setup: Callable[[], object],
    body: Callable[[object], object],
    reps: int,
) -> Dict[str, object]:
    """Time ``body(setup())`` ``reps`` times; record the distribution.

    ``setup`` runs outside the timed region each repetition, so
    stateful kernels (caches, core models) start identical every time
    and the repetitions measure the same work.
    """
    if reps < 1:
        raise ValueError("need at least one repetition")
    times: List[float] = []
    for _ in range(reps):
        state = setup()
        t0 = time.perf_counter()
        body(state)
        times.append(time.perf_counter() - t0)
    return {
        "reps_s": [round(t, 6) for t in times],
        "best_s": round(min(times), 6),
        "median_s": round(percentile(times, 50.0), 6),
        "spread": round(relative_spread(times), 4),
    }


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _core_builder(windows: int, window_cycles: int):
    from repro.config import JvmConfig, MachineConfig, SamplingConfig
    from repro.cpu.core_model import StaticSchedule
    from repro.cpu.engine import core_model_class
    from repro.cpu.phases import (
        PhaseDescriptor,
        gc_mark_profile,
        idle_profile,
        kernel_profile,
    )
    from repro.cpu.regions import AddressSpace
    from repro.util.rng import RngFactory

    machine = MachineConfig()
    space = AddressSpace.build(machine, JvmConfig())

    def setup():
        prof_rng = random.Random(7)
        descriptor = PhaseDescriptor(
            slices=(
                (kernel_profile(prof_rng, space), 0.5),
                (gc_mark_profile(prof_rng, space), 0.3),
                (idle_profile(prof_rng, space), 0.2),
            )
        )
        sampling = SamplingConfig(window_cycles=window_cycles)
        return core_model_class()(
            machine, space, StaticSchedule(descriptor), sampling, RngFactory(42)
        )

    def body(core):
        for w in range(windows):
            core.execute_window(w)

    return setup, body


def _cache_builder(accesses: int):
    from repro.cpu.cache import SetAssociativeCache

    rng = random.Random(99)
    trace = [rng.randrange(4096) for _ in range(accesses)]

    def setup():
        return SetAssociativeCache(128, 2, "lru")

    def body(cache):
        lookup = cache.lookup
        fill = cache.fill
        for block in trace:
            if not lookup(block):
                fill(block)

    return setup, body


def _counter_builder(increments: int):
    from repro.hpm.counters import CounterBank
    from repro.hpm.events import EVENT_INDEX, Event

    slot = EVENT_INDEX[Event.PM_LD_REF_L1]

    def setup():
        return CounterBank()

    def body(bank):
        data = bank.data
        for _ in range(increments):
            data[slot] += 1

    return setup, body


def _workload_builder(duration_s: float, injection_rate: int, thread_pool: int):
    import dataclasses

    from repro.workload.presets import jas2004
    from repro.workload.sut import SystemUnderTest

    config = jas2004(ir=injection_rate, duration_s=duration_s, seed=2007)
    config = config.with_overrides(
        workload=dataclasses.replace(config.workload, thread_pool=thread_pool)
    )

    def setup():
        return SystemUnderTest(config)

    def body(sut):
        sut.run()

    return setup, body


def run_suite(
    quick: bool = False,
    reps: int = MIN_REPETITIONS,
    kernels: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Run the kernel suite; returns ``{kernel: best_of result}``.

    ``quick`` shrinks the per-kernel work (CI smoke / tests) without
    changing the repetition policy.  Results additionally carry the
    kernel's size parameters so two records are only comparable when
    they measured the same work.
    """
    if reps < MIN_REPETITIONS:
        raise ValueError(
            f"best-of-N needs N >= {MIN_REPETITIONS} for the statistical "
            f"gate, got {reps}"
        )
    windows, window_cycles = (4, 20000) if quick else (12, 60000)
    accesses = 50_000 if quick else 200_000
    increments = 100_000 if quick else 300_000
    # IR 60 on a 120-thread pool keeps the 4-core SUT saturated without
    # rejecting arrivals, so the scheduler (AppServer.serve, or its
    # port in the compiled tick loop) is the loop's hottest part.
    tick_loop_s = 60.0 if quick else 300.0
    tick_loop_ir, tick_loop_pool = 60, 120
    catalog = {
        "window_execution": (
            _core_builder(windows, window_cycles),
            {"windows": windows, "window_cycles": window_cycles},
        ),
        "cache_kernel": (_cache_builder(accesses), {"accesses": accesses}),
        "counter_kernel": (
            _counter_builder(increments),
            {"increments": increments},
        ),
        "workload_tick_loop": (
            _workload_builder(tick_loop_s, tick_loop_ir, tick_loop_pool),
            {
                "duration_s": tick_loop_s,
                "injection_rate": tick_loop_ir,
                "thread_pool": tick_loop_pool,
            },
        ),
    }
    chosen = kernels if kernels is not None else sorted(catalog)
    unknown = sorted(set(chosen) - set(catalog))
    if unknown:
        raise ValueError(
            f"unknown kernels {unknown}; available: {sorted(catalog)}"
        )
    results: Dict[str, object] = {}
    for name in chosen:
        (setup, body), params = catalog[name]
        measured = best_of(setup, body, reps)
        measured.update(params)
        results[name] = measured
    return results


def suite_spread(results: Dict[str, object]) -> Dict[str, float]:
    """The envelope-level ``spread`` map for a suite's results."""
    return {
        name: entry["spread"]
        for name, entry in sorted(results.items())
        if isinstance(entry, dict) and "spread" in entry
    }


def render_suite_lines(results: Dict[str, object], reps: int) -> List[str]:
    lines = [
        "",
        "=" * 72,
        f"Kernel suite (best of {reps})",
        "=" * 72,
        f"  {'kernel':20s} {'best_s':>10s} {'median_s':>10s} {'spread':>8s}",
    ]
    for name in sorted(results):
        entry = results[name]
        lines.append(
            f"  {name:20s} {entry['best_s']:>10.4f} "
            f"{entry['median_s']:>10.4f} {entry['spread'] * 100:>7.1f}%"
        )
    return lines
