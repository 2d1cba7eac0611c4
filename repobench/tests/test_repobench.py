"""The benchmark's own tests: smoke runs at a tiny size, metric names,
unwrapped untraced runs, exact counts, and the refusal to run without
the program.

Run from the repository root: ``python3 -m pytest repobench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.REFERENCE_SEED


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "repobench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _main("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    # workload-grid stays runnable but is not declared: one repetition
    # per run is too unsteady for a bound (README.md, "Baseline").
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == [w for w in workloads.WORKLOADS if w != workloads.WORKLOAD_GRID]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_exactly_the_declared_metrics(workload):
    spec = _benchmark_json()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        doc = _result(workload, trace)
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
        if trace == 0:
            assert all(v["value"] > 0 for v in doc["metrics"].values())
    layers = {k: v["value"] for k, v in doc["metrics"].items()}
    assert layers["bench.trace_overhead_ratio"] > 0
    assert layers["workload.ticks"] > 0
    if workload == workloads.CHARACTERIZE:
        assert layers["cpu.windows"] > 0 and layers["hpm.campaigns"] > 0
        assert layers["obs.session_overhead_ratio"] > 0
    if workload == workloads.WORKLOAD_GRID:
        assert layers["cpu.windows"] == 0
    if workload == workloads.SWEEP_JOBS2:
        assert layers["experiments.tasks"] == len(workloads.sweep_modules("tiny"))
        # Three tasks on two workers: one worker ships spans for two.
        assert layers["workload.runs"] == layers["runcache.misses"] > 0
        assert layers["runcache.entries_written"] > 0
        assert layers["rows_off"] == 1


def _child(workload: str, mode: str, tmp_path: Path, name: str) -> dict:
    spec = {"workload": workload, "seed": SEED, "scale": "tiny", "mode": mode}
    doc, _rss, error = bench_run.run_child(spec, tmp_path / name, 120.0)
    assert doc is not None, error
    return doc


def test_untraced_run_executes_unwrapped_functions(tmp_path):
    assert _child(workloads.CHARACTERIZE, "plain", tmp_path, "plain")["unwrapped"]
    assert not _child(workloads.CHARACTERIZE, "traced", tmp_path, "traced")["unwrapped"]


@pytest.mark.parametrize("workload", [workloads.CHARACTERIZE, workloads.WORKLOAD_GRID])
def test_exact_counts_repeat(workload, tmp_path):
    first, second = (
        _child(workload, "traced", tmp_path, f"r{i}")["layers"] for i in range(2)
    )
    for name in ("workload.ticks", "cpu.windows", "cpu.instr", "runcache.misses"):
        assert first[name] == second[name], name
    assert first["workload.ticks"] > 0 and first["runcache.misses"] > 0
    if workload == workloads.CHARACTERIZE:
        assert first["cpu.instr"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _main("--workload", "characterize", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],  # overlaps a, as parallel workers do
        ["leaf", 1.5, 2.0, 1],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_grid_points_are_distinct_and_in_range():
    points = workloads.grid_points(SEED, 8)
    assert len(set(points)) == 8
    assert all(20 <= r <= 80 and 512 <= h <= 2048 for r, h in points)
    assert points == workloads.grid_points(SEED, 8)
