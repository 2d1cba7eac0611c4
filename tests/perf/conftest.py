"""Shared synthetic fixtures for the performance-observatory tests.

The profiler/flat-profile tests run against a hand-built
:class:`~repro.perf.sampler.SampleLog` so every assertion is exact —
no real sampling jitter involved.  The synthetic log models a small
call tree::

    main -> simulate -> run_until      (6 samples, the hot leaf)
    main -> simulate                   (2 samples)
    main -> report                     (2 samples)

so ``run_until`` owns 60% of self time and 90/10-style concentration
questions have known answers.
"""

from __future__ import annotations

import pytest

from repro.perf.benchsuite import MIN_REPETITIONS, SUITE_KIND, run_suite, suite_spread
from repro.perf.history import append_record
from repro.perf.sampler import FrameKey, SampleLog, StackSample
from repro.util.stats import percentile, relative_spread

#: Best-of-5 rounds per arm in :func:`measure_in_alternation`.
ROUNDS = 3

MAIN = FrameKey(func="main", file="/repo/src/app.py", line=10)
SIMULATE = FrameKey(func="simulate", file="/repo/src/sim.py", line=40)
RUN_UNTIL = FrameKey(func="run_until", file="/repo/src/stream.py", line=438)
REPORT = FrameKey(func="report", file="/repo/src/report.py", line=5)

HOT_STACK = (MAIN, SIMULATE, RUN_UNTIL)
MID_STACK = (MAIN, SIMULATE)
COLD_STACK = (MAIN, REPORT)


def make_sample_log(order=None) -> SampleLog:
    """The synthetic log; ``order`` permutes sample insertion order."""
    stacks = [HOT_STACK] * 6 + [MID_STACK] * 2 + [COLD_STACK] * 2
    if order is not None:
        stacks = [stacks[i] for i in order]
    samples = [
        StackSample(t=1.0 + 0.01 * i, frames=frames)
        for i, frames in enumerate(stacks)
    ]
    return SampleLog(
        interval_s=0.01, started_s=1.0, stopped_s=1.2, samples=samples
    )


@pytest.fixture
def sample_log() -> SampleLog:
    return make_sample_log()


@pytest.fixture(autouse=True)
def _clean_git_describe(monkeypatch):
    """Stamp bench envelopes with a clean synthetic revision.

    The observatory tests must not depend on the developer's working
    tree state: a dirty checkout would stamp ``-dirty`` describes,
    and the gate (correctly) refuses to promote those to baseline —
    which would make these tests fail locally mid-development.  Tests
    exercising the dirty-baseline hygiene craft their records
    explicitly.
    """
    monkeypatch.setattr("repro.benchio.git_describe", lambda: "testrev")


def measure_in_alternation(kernels, arms, rounds=ROUNDS):
    """One quick-suite result per arm, the arms measured in alternation.

    ``arms`` are context managers (``nullcontext()`` for an honest
    rerun).  Each of ``rounds`` rounds runs every arm once and merges
    its repetitions into that arm's result, so the drift of a shared
    host hits every arm alike instead of landing on one record.
    """
    merged = [None] * len(arms)
    for _ in range(rounds):
        for i, arm in enumerate(arms):
            with arm:
                result = run_suite(quick=True, kernels=list(kernels))
            if merged[i] is None:
                merged[i] = result
            else:
                for kernel, entry in result.items():
                    merged[i][kernel]["reps_s"] += entry["reps_s"]
    for result in merged:
        for entry in result.values():
            reps = entry["reps_s"]
            entry["best_s"] = min(reps)
            entry["median_s"] = percentile(reps, 50.0)
            entry["spread"] = round(relative_spread(reps), 4)
    return merged


def append_results(history, *results, rounds=ROUNDS):
    """Append each merged suite result as one trajectory record."""
    for result in results:
        append_record(
            history,
            result,
            SUITE_KIND,
            repetitions=rounds * MIN_REPETITIONS,
            spread=suite_spread(result),
        )
