"""The fault-free tick loop in C: identity with the Python loop, declines.

``SystemUnderTest.run`` runs a fault-free config in ``tick.c``
(:mod:`repro.workload.native_tick`) and every other config, and every
config the kernel declines, in the Python loop.  ``sut_golden.json``
pins both paths against one set of digests; this file compares them
with each other directly, down to the RNG streams' states after the
run, and covers what is specific to the C path: the declines and
their reasons, GC hand-offs, buffered response samples, a heap
overflow and the observability gauges it replays.  The slow property
test drives random fault-free configs through both loops.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DiskConfig, FaultConfig, RetryPolicy
from repro.cpu import native
from repro.cpu.engine import set_default_engine
from repro.experiments.common import quick_config
from repro.jvm.heap import HeapExhaustedError
from repro.obs import objprof as _objprof
from repro.obs import runtime as _obs
from repro.util.rng import RngFactory
from repro.workload import native_tick, presets
from repro.workload.sut import SystemUnderTest
from tests.workload.test_sut_golden import _golden, build_config, result_digests

needs_native = pytest.mark.skipif(
    native.LIB is None, reason=f"native kernel unavailable: {native.REASON}"
)

#: Every stream a SUT run draws from.
STREAMS = (
    "workload.arrivals",
    "workload.web",
    "workload.db",
    "workload.requests",
    "jvm.gc",
)


@pytest.fixture(autouse=True)
def _clean_engine():
    set_default_engine(None)
    yield
    set_default_engine(None)


def _run(config, python: bool):
    """The run's digests and its streams' states after it."""
    rngs = RngFactory(config.seed)
    set_default_engine("reference" if python else None)
    try:
        declined = native_tick.DECLINED.copy()
        result = SystemUnderTest(config, rngs).run()
        ran_in_c = native_tick.DECLINED == declined
    finally:
        set_default_engine(None)
    assert ran_in_c is not python
    return result_digests(result), {name: rngs.stream(name).getstate() for name in STREAMS}


def _assert_identical(config):
    c_digests, c_streams = _run(config, python=False)
    py_digests, py_streams = _run(config, python=True)
    moved = sorted(k for k in c_digests if c_digests[k] != py_digests[k])
    assert not moved, f"C and Python RunResult parts differ: {moved}"
    assert c_streams == py_streams


FAULT_FREE = [c for c in _golden() if not build_config(c).faults.is_active]


@needs_native
@pytest.mark.parametrize("case", FAULT_FREE, ids=lambda c: c["name"])
def test_golden_config_is_identical_in_c_and_python(case):
    _assert_identical(build_config(case))


def test_golden_has_fault_free_configs():
    assert len(FAULT_FREE) >= 8


def _with(config, **workload):
    return dataclasses.replace(
        config, workload=dataclasses.replace(config.workload, **workload)
    )


@needs_native
class TestKernelPaths:
    def test_log_space_poisson_and_long_ticks(self):
        # A 1 s tick at IR 150 puts the arrival rate of every type
        # above 30, the log-space branch of poisson.
        config = _with(
            quick_config(11),
            injection_rate=150,
            tick_s=1.0,
            duration_s=120.0,
            max_in_flight=300,
        )
        rate = config.workload.target_ops_per_s * min(
            s.share for s in config.workload.transactions
        )
        assert rate * config.workload.tick_s > 30.0
        _assert_identical(config)

    def test_admission_rejects_and_slow_disks(self):
        config = _with(
            quick_config(12),
            max_in_flight=40,
            thread_pool=8,
            duration_s=90.0,
            disk=DiskConfig.hard_disks(1, service_ms=11.0),
        )
        _assert_identical(config)

    def test_response_buffer_drains_every_tick(self, monkeypatch):
        monkeypatch.setattr(native_tick, "_RESPONSE_ROOM", 0)
        _assert_identical(_with(quick_config(13), duration_s=60.0))

    def test_heap_overflow_raises_the_python_loops_error(self):
        # Ten times the allocation outgrows the 24 MB the live set
        # leaves free in a small heap.
        config = quick_config(14)
        specs = tuple(
            dataclasses.replace(s, alloc_kb=10 * s.alloc_kb)
            for s in config.workload.transactions
        )
        config = dataclasses.replace(
            _with(config, duration_s=60.0, transactions=specs),
            jvm=dataclasses.replace(config.jvm, heap_mb=96),
        )
        messages = []
        for python in (False, True):
            with pytest.raises(HeapExhaustedError) as error:
                _run(config, python)
            messages.append(str(error.value))
        assert messages[0] == messages[1]

    def test_observability_gauges_match_the_python_loop(self):
        config = _with(quick_config(15), duration_s=60.0)
        snapshots, digests = [], []
        for python in (False, True):
            with _obs.observe() as session:
                digests.append(_run(config, python)[0])
            gauges = session.metrics.snapshot()["gauges"]
            snapshots.append({k: v for k, v in gauges.items() if k.startswith("sut.")})
        assert len(snapshots[0]) == 2 and snapshots[0] == snapshots[1]
        assert digests[0] == digests[1] == _run(config, python=False)[0]


class TestDeclines:
    def _reason(self, config):
        before = native_tick.DECLINED.copy()
        SystemUnderTest(config).run()
        return list(native_tick.DECLINED - before)

    def _short(self, seed=3):
        return _with(quick_config(seed), duration_s=20.0)

    @needs_native
    def test_faults_retry_or_brownout(self):
        config = dataclasses.replace(
            self._short(), faults=FaultConfig(retry=RetryPolicy(enabled=True))
        )
        assert self._reason(config) == ["faults, retry or brownout are active"]

    def test_engine_reference(self):
        set_default_engine("reference")
        assert self._reason(self._short()) == ["engine reference"]

    @needs_native
    def test_objprof_heap_ledger(self):
        with _objprof.profile_objects():
            assert self._reason(self._short()) == ["an objprof heap ledger is active"]

    def test_native_build_unavailable(self, monkeypatch):
        monkeypatch.setattr(native, "load", lambda: "native build unavailable: test")
        assert self._reason(self._short()) == ["the native build is unavailable"]

    @needs_native
    @pytest.mark.parametrize(
        "change",
        [{"max_in_flight": (1 << 20) + 1}, {"tick_s": 1}, {"thread_pool": 60.0}],
        ids=["max_in_flight", "int_tick", "float_pool"],
    )
    def test_sizes_beyond_the_kernel(self, change):
        config = _with(self._short(), **change)
        assert self._reason(config) == ["a size does not fit the kernel's fixed capacity"]

    @needs_native
    def test_a_fault_free_run_does_not_decline(self):
        assert self._reason(self._short()) == []

    def test_decline_reasons_are_not_window_declines(self):
        before = native.DECLINED.copy()
        set_default_engine("reference")
        self._reason(self._short())
        assert native.DECLINED == before


_PRESETS = ("jas2004", "jbb2000_like", "tpcw_like", "trade6")


@st.composite
def fault_free_configs(draw):
    preset = getattr(presets, draw(st.sampled_from(_PRESETS)))()
    config = presets.scaled_for_tests(preset, seed=draw(st.integers(1, 10**6)))
    if draw(st.booleans()):
        disk = DiskConfig.hard_disks(draw(st.integers(1, 4)), draw(st.floats(2.0, 12.0)))
    else:
        disk = DiskConfig.ram_disk()
    duration_s = float(draw(st.integers(10, 90)))
    config = _with(
        config,
        injection_rate=draw(st.integers(5, 120)),
        duration_s=duration_s,
        ramp_up_s=float(draw(st.integers(0, 20))),
        ramp_down_s=float(draw(st.integers(0, 10))),
        tick_s=draw(st.sampled_from((0.05, 0.1, 0.25, 1.0))),
        thread_pool=draw(st.integers(1, 150)),
        max_in_flight=draw(st.integers(0, 2000)),
        buffer_pool_hit=draw(st.floats(0.0, 1.0)),
        disk=disk,
    )
    heap_mb = draw(st.sampled_from((384, 512, 1024, 2048)))
    return dataclasses.replace(config, jvm=dataclasses.replace(config.jvm, heap_mb=heap_mb))


@needs_native
@pytest.mark.slow
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=fault_free_configs())
def test_random_fault_free_configs_are_identical_in_c_and_python(config):
    try:
        _assert_identical(config)
    except HeapExhaustedError as error:
        # Both loops must fail alike; the Python loop's message names
        # the same byte counts.
        with pytest.raises(HeapExhaustedError, match=re.escape(str(error))):
            _run(config, python=True)
