"""The benchmark's workloads: inputs from a seed, one timed run, digests.

Each workload turns ``--seed`` into the configs the program receives and
runs them as a closed loop of operations (one study, one config, or one
catalog entry), each starting when the previous one ends.  Every
operation yields a digest of its simulated output, so repetitions,
traced and untraced runs, and two commits can be compared byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path
from typing import Dict, List, Optional

CHARACTERIZE = "characterize"
WORKLOAD_GRID = "workload-grid"
SWEEP_JOBS2 = "sweep-jobs2"
WORKLOADS = (CHARACTERIZE, WORKLOAD_GRID, SWEEP_JOBS2)

#: The seed every golden output and verdict of the repository is taken at.
REFERENCE_SEED = 2007

#: The one paper-vs-measured row known to sit off band (EXPERIMENTS.md
#: known gap "simple benchmarks stress JVM+JITed code").
KNOWN_GAP = ("tab_baselines", "simple benchmarks stress JVM+JITed code")

#: Left out of the sweep: ~40 s of pure window re-sampling, which
#: ``characterize`` already stresses.
SWEEP_EXCLUDED = "exp_methodology"
SWEEP_JOBS = 2

#: ``full`` is the measured size; ``tiny`` only smoke-tests the benchmark.
SCALES = {
    "full": {
        "hw_windows": 60,
        "corr_windows": 60,
        "grid_configs": 8,
        "grid_duration_s": None,
        "sweep_only": None,
    },
    "tiny": {
        "hw_windows": 6,
        "corr_windows": 3,
        "grid_configs": 2,
        "grid_duration_s": 60.0,
        "sweep_only": ["fig02_throughput", "fig03_gc", "tab_baselines"],
    },
}

IR_RANGE = (20, 80)
HEAP_MB_RANGE = (512, 2048)


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> List[int]:
    """One integer from each of ``n`` equal bins of ``[lo, hi]``.

    Stratifying keeps the grid's total work close across seeds while
    every value still comes from the seed.
    """
    width = (hi - lo) / n
    return [lo + int((i + rng.random()) * width) for i in range(n)]


def grid_points(seed: int, n: int) -> List[tuple]:
    """``n`` distinct (injection rate, heap MB) pairs drawn from ``seed``.

    The heap grows with the load, as a tuned deployment sizes it: a
    random pairing would let one seed put a high rate on a small heap
    (GC thrash, heavy admission control), whose cost differs from the
    tuned pair's by up to 2x, so a run's total work would hinge on the
    pairing.  Paired by bin, the total stays within a few percent.
    """
    rng = random.Random(seed)
    rates = _stratified(rng, *IR_RANGE, n)
    heaps = _stratified(rng, *HEAP_MB_RANGE, n)
    return list(zip(rates, heaps))


def make_inputs(workload: str, seed: int, scale: str = "full") -> list:
    """The configs the program receives for ``workload`` at ``seed``."""
    from repro.experiments.common import bench_config, quick_config

    size = SCALES[scale]
    if workload in (CHARACTERIZE, SWEEP_JOBS2):
        return [quick_config(seed)]
    if workload != WORKLOAD_GRID:
        raise ValueError(f"unknown workload {workload!r}")
    configs = []
    for rate, heap_mb in grid_points(seed, size["grid_configs"]):
        base = (
            bench_config(seed)
            if size["grid_duration_s"] is None
            else bench_config(seed, duration_s=size["grid_duration_s"])
        )
        configs.append(
            dataclasses.replace(
                base,
                workload=dataclasses.replace(base.workload, injection_rate=rate),
                jvm=dataclasses.replace(base.jvm, heap_mb=heap_mb),
            )
        )
    return configs


def sweep_modules(scale: str = "full") -> List[str]:
    from repro.experiments.reproduce_all import catalog_modules

    only = SCALES[scale]["sweep_only"]
    if only is not None:
        return list(only)
    return [m for m in catalog_modules() if m != SWEEP_EXCLUDED]


def _op(name: str, text: Optional[str] = None, off: Optional[List[str]] = None,
        error: Optional[str] = None) -> Dict[str, object]:
    return {
        "name": name,
        "digest": digest(text) if text is not None else None,
        "off_rows": list(off or []),
        "error": error,
    }


def run_digest_text(result) -> str:
    """A canonical summary of one ``RunResult`` (floats by exact repr)."""
    return repr(
        (
            len(result.timeline),
            [e.pause_ms for e in result.gc_events],
            [len(r) for r in result.responses],
            [sum(rt for _, rt in r) for r in result.responses],
            result.rejected,
            result.db_hit_ratio,
            result.disk_utilization,
            result.disk_mean_queue,
            result.final_heap_used,
            result.final_dark_matter,
        )
    )


def run_timed(workload: str, configs: list, scale: str) -> dict:
    """Execute one repetition's operations; the caller times this call.

    Returns the operations, the simulated ticks of the distinct configs
    the run needed, the paper-vs-measured rows off band, and the
    digest of the whole rendered output.
    """
    size = SCALES[scale]
    if workload == CHARACTERIZE:
        from repro import Characterization, render_report

        study = Characterization(configs[0])
        try:
            report = study.run(
                hw_windows=size["hw_windows"],
                correlation_windows_per_group=size["corr_windows"],
            )
            text = render_report(report)
        except Exception as exc:  # one failed operation, reported
            return {"ops": [_op("study", error=repr(exc))], "ticks": 0,
                    "rows_off": 0, "output_digest": None}
        return {
            "ops": [_op("study", text)],
            "ticks": len(study.result.timeline),
            "rows_off": 0,
            "output_digest": digest(text),
        }
    if workload == WORKLOAD_GRID:
        from repro.experiments.common import simulate

        ops, ticks, texts = [], 0, []
        for config in configs:
            name = f"ir{config.workload.injection_rate}-heap{config.jvm.heap_mb}"
            try:
                result = simulate(config)
            except Exception as exc:  # one failed operation, reported
                ops.append(_op(name, error=repr(exc)))
                continue
            text = run_digest_text(result)
            texts.append(text)
            ops.append(_op(name, text))
            ticks += len(result.timeline)
        return {"ops": ops, "ticks": ticks, "rows_off": 0,
                "output_digest": digest("\n".join(texts))}
    from repro.experiments import reproduce_all

    only = sweep_modules(scale)
    try:
        result = reproduce_all.run(configs[0], jobs=SWEEP_JOBS, only=only)
    except Exception as exc:  # every catalog entry counts as failed
        return {"ops": [_op(m, error=repr(exc)) for m in only], "ticks": 0,
                "rows_off": 0, "output_digest": None}
    ops = [
        _op(record.module, "\n".join(record.lines), record.rows_off)
        for record in result.records.values()
    ]
    return {
        "ops": ops,
        "ticks": 0,  # filled from the cache directory, outside the timing
        "rows_off": len(result.rows_off),
        "output_digest": digest("\n".join(result.render_lines(include_timing=False))),
    }


def distinct_ticks(cache_dir: Path) -> tuple:
    """(entries, simulated ticks) of the run-cache entries on disk."""
    from repro.runcache import decode_entry

    entries = sorted(cache_dir.glob("*.pkl"))
    ticks = sum(len(decode_entry(p.read_bytes()).timeline) for p in entries)
    return len(entries), ticks


def unexpected_off_rows(op: Dict[str, object]) -> List[str]:
    """Off-band rows of one operation other than the known gap."""
    return [
        row for row in op["off_rows"]
        if (op["name"], row) != KNOWN_GAP
    ]
