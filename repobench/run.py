"""The repo benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 repobench/run.py --workload characterize --seed 2007 --seconds 40 --trace 0

Workloads (see README.md for why each was chosen): ``characterize``,
``workload-grid`` and ``sweep-jobs2``; ``BENCHMARK.json`` declares the
first and the last.  Every repetition runs in a fresh
interpreter (``rep.py``) against the program under ``src/``, with an
empty run cache, no ``REPRO_*`` variables inherited (so the default
``fused`` engine runs) and, on the sweep, a new empty cache directory.

``--trace 0`` runs set-up probes, then timed repetitions as a closed
loop while the next one should end within ``--seconds`` (at least one),
and reports the end-to-end metrics as medians over the repetitions.
``--trace 1`` runs one untraced and one traced repetition (plus, on
``characterize``, one under the program's own observability session)
and reports the per-layer metrics.  Both print the digests of every
operation's output and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

An operation (one study, one config, or one catalog entry) fails when
it raises, when its digest differs between repetitions or between the
traced and untraced runs, or, at the reference seed 2007, when it puts
a paper-vs-measured row off band other than the known gap.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Reported with ``--trace 0``: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ticks_per_s": "ticks/s",
    "peak_rss_mb": "MB",
}

#: Reported with ``--trace 1``: name -> unit.  ``sim_instr_per_s``,
#: ``fail_ratio`` and ``rows_off`` are end-to-end figures that can be 0
#: on some workload, so they carry no regression bound and ride here.
PER_LAYER = {
    "workload.runs": "count",
    "workload.ticks": "count",
    "workload.requests": "count",
    "workload.run_s": "s",
    "workload.serve_s": "s",
    "workload.us_per_tick": "us",
    "jvm.collections": "count",
    "jvm.collect_s": "s",
    "cpu.windows": "count",
    "cpu.instr": "instr",
    "cpu.window_s": "s",
    "cpu.window_ms_p50": "ms",
    "cpu.window_ms_p99": "ms",
    "cpu.instr_per_s": "instr/s",
    "cpu.warmup_s": "s",
    "cpu.build_s": "s",
    "hpm.campaigns": "count",
    "hpm.self_s": "s",
    "core.analysis_self_s": "s",
    "core.correlation_self_s": "s",
    "runcache.hits": "count",
    "runcache.disk_hits": "count",
    "runcache.misses": "count",
    "runcache.hit_ratio": "1",
    "runcache.entries_written": "count",
    "runcache.write_errors": "count",
    "runcache.self_s": "s",
    "experiments.tasks": "count",
    "experiments.retries": "count",
    "experiments.duplicate_sims": "count",
    "experiments.pool_busy_ratio": "1",
    "experiments.slowest_task_s": "s",
    "obs.session_overhead_ratio": "1",
    "bench.trace_overhead_ratio": "1",
    "bench.unattributed_ratio": "1",
    "sim_instr_per_s": "instr/s",
    "fail_ratio": "1",
    "rows_off": "count",
}

SETUP_PROBES = 4
#: A run must end within 180 s: no new repetition starts after this
#: many seconds.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0
RSS_POLL_S = 0.1
RSS_RELIST = 10


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _session_pids(sid: int) -> List[int]:
    """Live processes in session ``sid`` (the child and its workers)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[3] the session id.
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


class _PeakRss(threading.Thread):
    """Polls the summed resident memory of one child's session.

    Listing the session walks all of ``/proc`` (about 1 ms), so the
    members are re-listed only every ``RSS_RELIST`` polls; pool workers
    live for the whole sweep.
    """

    def __init__(self, sid: int):
        super().__init__(daemon=True)
        self.sid = sid
        self.peak = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        polls = 0
        members: List[int] = []
        while not self._stop_event.is_set():
            if polls % RSS_RELIST == 0:
                members = _session_pids(self.sid)
            polls += 1
            self.peak = max(self.peak, sum(_rss_bytes(pid) for pid in members))
            self._stop_event.wait(RSS_POLL_S)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def _end_session(sid: int) -> None:
    """Kill whatever is left of a child's session and wait until it is gone."""
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while _session_pids(sid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_child(
    spec: dict, workdir: Path, timeout_s: float
) -> Tuple[Optional[dict], float, str]:
    """Run ``rep.py`` on ``spec``; returns (result or None, peak RSS MB, error)."""
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    spec = dict(spec, workdir=str(workdir), out=str(workdir / "result.json"))
    if spec["workload"] == workloads.SWEEP_JOBS2 and spec["mode"] != "setup":
        cache_dir = workdir / "runcache"
        cache_dir.mkdir()
        env["REPRO_RUN_CACHE_DIR"] = str(cache_dir)
        spec["cache_dir"] = str(cache_dir)
    spec["spawn_t"] = time.monotonic()
    with open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            cwd=str(ROOT),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        sampler = _PeakRss(proc.pid)
        sampler.start()
        try:
            code = proc.wait(timeout=max(1.0, timeout_s))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            sampler.stop()
            _end_session(proc.pid)
            proc.wait()
    peak_mb = sampler.peak / 2**20
    if code != 0:
        tail = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
        reason = "timed out" if code is None else f"exit code {code}"
        return None, peak_mb, f"{reason}: {tail.strip()}"
    return json.loads((workdir / "result.json").read_text()), peak_mb, ""


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class Ledger:
    """Operations attempted and failed, with the reason for each failure.

    The paper-vs-measured verdicts are the repository's claims at its
    reference seed (every golden output and the conformance gate use
    it), so only there is a row off band other than the known gap a
    failure.  At other seeds such rows are printed and counted in
    ``rows_off``: at quick scale some verdicts depend on the seed.
    """

    def __init__(self, seed: int) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.reference: Dict[str, str] = {}
        self.check_rows = seed == workloads.REFERENCE_SEED

    def add(self, label: str, doc: Optional[dict], error: str) -> None:
        if doc is None:
            self.attempted += 1
            self.failures.append(f"{label}: repetition failed ({error})")
            return
        for op in doc["ops"]:
            self.attempted += 1
            name = op["name"]
            if op["error"] is not None:
                self.failures.append(f"{label} {name}: raised {op['error']}")
                continue
            off = workloads.unexpected_off_rows(op)
            if off and self.check_rows:
                self.failures.append(f"{label} {name}: off band {off}")
                continue
            if off:
                print(f"  {label} {name}: off band at this seed: {off}")
            first = self.reference.setdefault(name, op["digest"])
            if op["digest"] != first:
                self.failures.append(
                    f"{label} {name}: digest {op['digest']} != {first}"
                )

    @property
    def failed(self) -> int:
        return len(self.failures)


def _print_digests(label: str, doc: Optional[dict]) -> None:
    if doc is None:
        return
    print(f"  {label} wall_s {doc['wall_s']:.4f} cpu_s {doc['cpu_s']:.4f} "
          f"setup_s {doc['setup_s']:.4f} distinct_entries {doc['distinct_entries']}")
    print(f"  {label} output {doc['output_digest']}")
    for op in doc["ops"]:
        print(f"  {label} op {op['name']} {op['digest']}")


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def _spec(args, mode: str) -> dict:
    return {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "mode": mode}


def timed_run(args, tmp: Path, started: float) -> Tuple[Dict[str, float], Ledger]:
    ledger = Ledger(args.seed)
    setups: List[float] = []
    for i in range(SETUP_PROBES):
        doc, _rss, error = run_child(_spec(args, "setup"), tmp / f"setup{i}", 60.0)
        if doc is None:
            raise RuntimeError(f"set-up probe failed: {error}")
        setups.append(doc["setup_s"])
    reps: List[Tuple[dict, float]] = []
    took: List[float] = []
    loop_start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        remaining = CHILD_TIMEOUT_S - (rep_start - started)
        doc, rss, error = run_child(_spec(args, "plain"), tmp / f"rep{len(reps)}", remaining)
        label = f"rep{len(reps) + 1}"
        ledger.add(label, doc, error)
        _print_digests(label, doc)
        if doc is None:
            break
        reps.append((doc, rss))
        now = time.monotonic()
        took.append(now - rep_start)
        # Start another repetition only if it should end within the run.
        expected_end = now + statistics.median(took)
        if (expected_end - loop_start > args.seconds
                or expected_end - started > RUN_BUDGET_S):
            break
    if not reps:
        raise RuntimeError("no repetition completed")
    docs = [d for d, _ in reps]
    metrics = {
        "setup_s": statistics.median(setups + [d["setup_s"] for d in docs]),
        "wall_s": statistics.median(d["wall_s"] for d in docs),
        "cpu_s": statistics.median(d["cpu_s"] for d in docs),
        "ticks_per_s": statistics.median(d["ticks"] / d["wall_s"] for d in docs),
        "peak_rss_mb": statistics.median(rss for _, rss in reps),
    }
    print(f"  timed repetitions: {len(docs)}; set-up samples: {len(setups) + len(docs)}")
    print(f"  rows_off {docs[0]['rows_off']} count")
    print("  sim_instr_per_s: measured by the traced run (--trace 1)")
    return metrics, ledger


def traced_run(args, tmp: Path, started: float) -> Tuple[Dict[str, float], Ledger]:
    ledger = Ledger(args.seed)
    runs: Dict[str, Tuple[dict, float]] = {}
    modes = ["plain", "traced"]
    if args.workload == workloads.CHARACTERIZE:
        modes.append("obs")
    for mode in modes:
        remaining = CHILD_TIMEOUT_S - (time.monotonic() - started)
        doc, rss, error = run_child(_spec(args, mode), tmp / mode, remaining)
        ledger.add(mode, doc, error)
        _print_digests(mode, doc)
        if doc is None:
            raise RuntimeError(f"{mode} repetition failed: {error}")
        runs[mode] = (doc, rss)
    plain, rss = runs["plain"]
    traced = runs["traced"][0]
    if not plain["unwrapped"] or traced["unwrapped"]:
        raise RuntimeError("untraced run saw wrapped functions, or traced did not")
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    layers["obs.session_overhead_ratio"] = (
        runs["obs"][0]["wall_s"] / plain["wall_s"] if "obs" in runs else 0.0
    )
    layers["sim_instr_per_s"] = layers["cpu.instr"] / plain["wall_s"]
    layers["fail_ratio"] = ledger.failed / ledger.attempted
    layers["rows_off"] = plain["rows_off"]
    print("  end to end, untraced repetition:")
    for name, value, unit in (
        ("setup_s", plain["setup_s"], "s"),
        ("wall_s", plain["wall_s"], "s"),
        ("cpu_s", plain["cpu_s"], "s"),
        ("sim_instr_per_s", layers["sim_instr_per_s"], "instr/s"),
        ("ticks_per_s", plain["ticks"] / plain["wall_s"], "ticks/s"),
        ("peak_rss_mb", rss, "MB"),
        ("fail_ratio", layers["fail_ratio"], "1"),
        ("rows_off", plain["rows_off"], "count"),
    ):
        print(f"    {name:28s} {value:.6g} {unit}")
    return layers, ledger


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=sorted(workloads.SCALES), default="full",
        help="input size; 'tiny' is for the benchmark's own smoke tests",
    )
    args = parser.parse_args(argv)
    # A terminated run still ends its child's session (run_child's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"repobench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    tmp = ROOT / ".repobench_tmp" / f"{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    print(f"repobench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}")
    try:
        if args.trace:
            values, ledger = traced_run(args, tmp, started)
            units = PER_LAYER
        else:
            values, ledger = timed_run(args, tmp, started)
            units = END_TO_END
    except RuntimeError as exc:
        print(f"repobench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for line in ledger.failures:
        print(f"  FAILED {line}")
    if not args.trace:
        print(f"  fail_ratio {ledger.failed / ledger.attempted:.6g} 1")
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        print(f"  {name:28s} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
