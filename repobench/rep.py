"""One repetition of a workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 repobench/rep.py '<spec json>'``.  The
spec names the workload, seed, scale, mode and output file:

* ``setup``  — import and generate the inputs, then stop (a set-up probe);
* ``plain``  — the timed run with the program's functions untouched;
* ``traced`` — the timed run with the layer wrappers of ``tracing.py``;
* ``obs``    — the timed run under the program's own observability
  session, exactly as ``--trace-json`` opens one, trace written out.

``setup_s`` runs from the parent's spawn time (``spawn_t``, on the
system-wide monotonic clock) to the start of the timed call.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads
from repro.obs import observe


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _reap_workers() -> None:
    """Wait for pool workers so their CPU time counts as our children's."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def main(spec: dict) -> dict:
    workload, scale, mode = spec["workload"], spec["scale"], spec["mode"]
    configs = workloads.make_inputs(workload, spec["seed"], scale)
    # Imports every layer a run can reach, so every mode sets up alike.
    targets = tracing.wrapped_targets()
    if mode == "setup":
        return {"setup_s": time.monotonic() - spec["spawn_t"]}

    recorder = None
    if mode == "traced":
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    unwrapped = not any(tracing.is_wrapped(owner, attr) for owner, attr in targets)
    cache_dir = Path(spec["cache_dir"]) if spec.get("cache_dir") else None

    setup_s = time.monotonic() - spec["spawn_t"]
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if mode == "obs":
        with observe() as session:
            outcome = workloads.run_timed(workload, configs, scale)
        Path(spec["workdir"], "trace.json").write_text(session.tracer.to_json() + "\n")
    else:
        outcome = workloads.run_timed(workload, configs, scale)
    wall_s = time.perf_counter() - t0
    _reap_workers()
    cpu_s = _cpu_s() - cpu0

    entries = 0
    if cache_dir is not None:
        entries, outcome["ticks"] = workloads.distinct_ticks(cache_dir)
    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "unwrapped": unwrapped,
        "distinct_entries": entries,
        **outcome,
    }
    if recorder is not None:
        doc["layers"] = tracing.summarize(recorder, wall_s, entries)
    return doc


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(spec["out"]).write_text(json.dumps(result))
