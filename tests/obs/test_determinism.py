"""The zero-cost contract: observability never changes the science.

Two guarantees from :mod:`repro.obs.runtime`, asserted here end to end:

* **disabled** — with no active session the instrumented call sites are
  a single ``is not None`` test; a run produces bit-identical outputs
  to one executed under a session (so instrumentation cannot have
  perturbed RNG draws or float accumulation order in either mode);
* **enabled** — a session only *records*; the scientific outputs
  (tick records, GC events, response samples, experiment reports) are
  byte-identical, with the trace/metrics artifacts added alongside.
"""

import pytest

from repro.experiments.reproduce_all import run as sweep
from repro.obs import Observability, observe
from repro.runcache import RunCache, set_default_cache
from repro.workload.sut import SystemUnderTest
from tests.conftest import make_quick_config

SUBSET = ["fig03_gc", "tab_utilization"]


def _isolated_sweep():
    """One reproduce-all subset run against a private, empty run cache.

    Isolation keeps both arms honest: each one actually simulates
    instead of replaying the session-wide memoized result, so equality
    below compares two real executions, not one result with itself.
    """
    previous = set_default_cache(RunCache())
    try:
        return sweep(make_quick_config(), only=SUBSET)
    finally:
        set_default_cache(previous)


@pytest.fixture(scope="module")
def disabled_sweep():
    return _isolated_sweep()


@pytest.fixture(scope="module")
def enabled_sweep():
    with observe() as obs:
        result = _isolated_sweep()
    return result, obs


class TestSutRunIdentical:
    """The workload simulator itself, with and without a session."""

    def test_enabled_run_bit_identical_to_disabled(self, quick_config, quick_run):
        with observe() as obs:
            instrumented = SystemUnderTest(quick_config).run()
        baseline = quick_run
        assert instrumented.timeline.records == baseline.timeline.records
        assert instrumented.gc_events == baseline.gc_events
        assert instrumented.responses == baseline.responses
        assert instrumented.rejected == baseline.rejected
        assert instrumented.db_hit_ratio == baseline.db_hit_ratio
        assert instrumented.disk_utilization == baseline.disk_utilization
        assert instrumented.final_heap_used == baseline.final_heap_used
        # And the session really was live, not silently inert.
        assert obs.metrics.value("sut.runs") == 1
        assert obs.metrics.value("jvm.gc.collections") == len(baseline.gc_events)


class TestObjProfZeroCost:
    """The object-centric profiler inherits the same contract: charges
    are pure integer side counters, so a profiled run is bit-identical
    to an unprofiled one — while the site ledgers genuinely fill."""

    def test_objprof_sut_run_bit_identical(self, quick_config, quick_run):
        from repro.obs import objprof

        with objprof.profile_objects() as prof:
            profiled = SystemUnderTest(quick_config).run()
        baseline = quick_run
        assert profiled.timeline.records == baseline.timeline.records
        assert profiled.gc_events == baseline.gc_events
        assert profiled.responses == baseline.responses
        assert profiled.rejected == baseline.rejected
        assert profiled.db_hit_ratio == baseline.db_hit_ratio
        assert profiled.final_heap_used == baseline.final_heap_used
        # Non-vacuity: the heap was observed at site granularity.
        assert prof.ledgers
        ledger = prof.ledgers[0]
        assert sum(ledger.allocated_total) > 0
        assert all(ledger.reconcile().values())

    def test_objprof_sampled_windows_bit_identical(self, quick_config):
        from repro.core.characterization import Characterization
        from repro.obs import objprof

        def sample(n=6):
            return Characterization(quick_config).sample_windows(n)

        baseline = sample()
        with objprof.profile_objects() as prof:
            profiled = sample()
        # Event enums don't order; compare by-name dicts per window.
        assert [
            {e.name: v for e, v in s.snapshot.counts.items()}
            for s in profiled
        ] == [
            {e.name: v for e, v in s.snapshot.counts.items()}
            for s in baseline
        ]
        # Non-vacuity: misses were charged while sampling, and every
        # sampled-window L1D load miss is among the charges (warmup
        # windows are profiled too, hence >=).
        from repro.hpm.events import Event

        sampled = sum(s.snapshot[Event.PM_LD_MISS_L1] for s in baseline)
        charged = prof.build_profile().total(objprof.SLOT_LD_MISS)
        assert charged >= sampled > 0

    def test_objprof_bypasses_run_cache(self, quick_config):
        from repro.obs import objprof

        cache = RunCache()
        cache.get_or_run(quick_config)
        with objprof.profile_objects() as prof:
            cache.get_or_run(quick_config)
        # The profiled lookup simulated (a replay would never build a
        # heap, so the ledger would stay empty).
        assert cache.stats.misses == 2
        assert prof.ledgers


class TestSamplerZeroCost:
    """The performance observatory inherits the zero-cost contract:
    sampling the host stack reads frames, never touches the science."""

    def test_sampled_run_bit_identical(self, quick_config, quick_run):
        from repro.perf.sampler import StackSampler

        sampler = StackSampler(interval_s=0.002)
        sampler.start()
        try:
            sampled = SystemUnderTest(quick_config).run()
        finally:
            log = sampler.stop()
        baseline = quick_run
        assert sampled.timeline.records == baseline.timeline.records
        assert sampled.gc_events == baseline.gc_events
        assert sampled.responses == baseline.responses
        assert sampled.rejected == baseline.rejected
        assert sampled.db_hit_ratio == baseline.db_hit_ratio
        assert sampled.final_heap_used == baseline.final_heap_used
        # Non-vacuity: the sampler really ran alongside the science.
        assert log.duration_s > 0

    def test_sampled_observed_sweep_bit_identical(self, disabled_sweep):
        """Sampler + obs session together — still byte-identical."""
        from repro.perf.sampler import StackSampler

        sampler = StackSampler(interval_s=0.002)
        sampler.start()
        try:
            with observe():
                sampled = _isolated_sweep()
        finally:
            sampler.stop()
        assert sampled.render_lines(include_timing=False) == \
            disabled_sweep.render_lines(include_timing=False)


class TestSweepReportIdentical:
    def test_report_byte_identical(self, disabled_sweep, enabled_sweep):
        enabled, _ = enabled_sweep
        assert enabled.render_lines(include_timing=False) == \
            disabled_sweep.render_lines(include_timing=False)

    def test_rows_identical(self, disabled_sweep, enabled_sweep):
        enabled, _ = enabled_sweep
        assert enabled.rows_total == disabled_sweep.rows_total
        assert enabled.rows_off == disabled_sweep.rows_off


class TestSessionObservedTheSweep:
    """Non-vacuity: the enabled arm recorded what happened."""

    def test_experiment_spans(self, enabled_sweep):
        _, obs = enabled_sweep
        names = {s.name for s in obs.tracer.by_category("experiment")}
        assert names == set(SUBSET)

    def test_run_phase_and_gc_spans(self, enabled_sweep):
        _, obs = enabled_sweep
        phases = {s.name for s in obs.tracer.by_category("run")}
        assert {"warmup", "steady", "sut.run"} <= phases
        assert len(obs.tracer.by_category("gc")) > 0

    def test_sut_run_spans_nest_in_simulate_spans(self, enabled_sweep):
        """A ``sut.run`` wall span starts at its run's perf_counter()
        start, inside the ``simulate`` lookup that ran it, like every
        other wall span (not at time 0)."""
        _, obs = enabled_sweep
        runs = [s for s in obs.tracer.by_category("run") if s.name == "sut.run"]
        simulated = [s for s in obs.tracer.by_category("sim") if s.name == "simulate"]
        assert runs and simulated
        for run in runs:
            assert any(
                sim.start_s <= run.start_s and run.end_s <= sim.end_s
                for sim in simulated
            ), f"sut.run span {run} lies outside every simulate span"

    def test_simulate_lookups_audited(self, enabled_sweep):
        _, obs = enabled_sweep
        sources = {r.source for r in obs.run_records}
        assert "simulated" in sources
        assert obs.metrics.value(
            "runcache.lookups", {"source": "simulated"}
        ) >= 1

    def test_metric_counters_repeatable(self, enabled_sweep):
        """A second enabled run accumulates the exact same counters."""
        _, first = enabled_sweep
        with observe(Observability()) as again:
            _isolated_sweep()
        assert again.metrics.snapshot()["counters"] == \
            first.metrics.snapshot()["counters"]
