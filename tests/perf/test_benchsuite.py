"""The best-of-N suite, and the gate acceptance scenario end to end.

The acceptance test is the one the observatory exists for: inject a
2x slowdown into a hot kernel — ``SliceRunner.run_until`` (window
execution) or ``AppServer.serve`` (the workload tick loop) — record a
trajectory point, and the gate must FAIL — while an unmodified rerun
of identical work must PASS.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from unittest.mock import patch

import pytest

from repro.cpu.stream import SliceRunner
from repro.perf.benchsuite import (
    MIN_REPETITIONS,
    SUITE_KIND,
    best_of,
    render_suite_lines,
    run_suite,
    suite_spread,
)
from repro.perf.gate import REGRESSED, evaluate_gate
from repro.perf.history import read_history
from repro.workload.appserver import AppServer
from tests.perf.conftest import append_results, measure_in_alternation


class TestBestOf:
    def test_measures_every_repetition(self):
        calls = []

        def setup():
            calls.append("setup")
            return object()

        result = best_of(setup, lambda state: None, reps=5)
        assert calls == ["setup"] * 5
        assert len(result["reps_s"]) == 5
        assert result["best_s"] == min(result["reps_s"])
        assert result["best_s"] <= result["median_s"]
        assert result["spread"] >= 0.0

    def test_setup_outside_timed_region(self):
        def slow_setup():
            time.sleep(0.02)
            return None

        result = best_of(slow_setup, lambda state: None, reps=5)
        # 20ms of setup per rep must not leak into the timings.
        assert result["best_s"] < 0.01

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError, match="at least one"):
            best_of(lambda: None, lambda s: None, reps=0)


class TestRunSuite:
    def test_quick_suite_shape(self):
        results = run_suite(quick=True)
        assert set(results) == {
            "cache_kernel",
            "counter_kernel",
            "window_execution",
            "workload_tick_loop",
        }
        for entry in results.values():
            assert len(entry["reps_s"]) == MIN_REPETITIONS
            assert entry["best_s"] > 0
        # Size parameters travel with the measurement.
        assert results["window_execution"]["windows"] == 4
        assert results["cache_kernel"]["accesses"] == 50_000
        assert results["workload_tick_loop"]["duration_s"] == 60.0

    def test_repetition_floor_enforced(self):
        with pytest.raises(ValueError, match=">= 5"):
            run_suite(quick=True, reps=3)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels"):
            run_suite(quick=True, kernels=["nonesuch"])

    def test_kernel_selection(self):
        results = run_suite(quick=True, kernels=["counter_kernel"])
        assert list(results) == ["counter_kernel"]

    def test_spread_and_rendering(self):
        results = run_suite(quick=True, kernels=["counter_kernel"])
        spread = suite_spread(results)
        assert set(spread) == {"counter_kernel"}
        text = "\n".join(render_suite_lines(results, MIN_REPETITIONS))
        assert "counter_kernel" in text
        assert "best of 5" in text


def _slowed_twofold(original):
    """``original``, burning its own wall time again after each call."""

    def slowed(*args):
        t0 = time.perf_counter()
        result = original(*args)
        deadline = 2 * time.perf_counter() - t0
        while time.perf_counter() < deadline:
            pass
        return result

    return slowed


class TestGateAcceptance:
    """The gate catches an injected 2x slowdown of a hot kernel.

    Records that are compared are measured in alternation (a few
    best-of-5 rounds per arm, merged), so the drift of a shared host
    hits both arms alike instead of landing on one record.
    """

    def _assert_gate_catches_slowdown(self, history, kernel, owner, method, min_ratio):
        # Honest rerun of identical work: the gate must pass.
        append_results(history, *measure_in_alternation([kernel], [nullcontext()] * 2))
        report = evaluate_gate(read_history(history, kind=SUITE_KIND))
        assert report.passed, "\n".join(report.render_lines())

        # Inject a 2x slowdown into the hot kernel: after the real
        # call executes, burn the same wall time again.
        slowed = patch.object(owner, method, _slowed_twofold(getattr(owner, method)))
        append_results(history, *measure_in_alternation([kernel], [nullcontext(), slowed]))
        report = evaluate_gate(read_history(history, kind=SUITE_KIND))
        assert not report.passed, "\n".join(report.render_lines())
        verdict = {v.kernel: v for v in report.verdicts}[kernel]
        assert verdict.verdict == REGRESSED
        assert verdict.ratio >= min_ratio
        assert verdict.p_value < 0.05

        # And science was untouched: a rerun after the restore, judged
        # against the poisoned record, shows IMPROVED — not REGRESSED.
        append_results(history, *measure_in_alternation([kernel], [nullcontext()]))
        report = evaluate_gate(read_history(history, kind=SUITE_KIND))
        assert report.passed, "\n".join(report.render_lines())

    def test_unmodified_rerun_passes_then_injected_slowdown_fails(self, tmp_path):
        self._assert_gate_catches_slowdown(
            tmp_path / "hist.jsonl",
            "window_execution",
            SliceRunner,
            "run_until",
            min_ratio=1.4,
        )

    def test_injected_serve_slowdown_fails_the_tick_loop(self, tmp_path):
        # serve is about 60% of this kernel's tick loop, so doubling
        # it slows the whole loop by about 1.6x.
        self._assert_gate_catches_slowdown(
            tmp_path / "hist.jsonl",
            "workload_tick_loop",
            AppServer,
            "serve",
            min_ratio=1.3,
        )
