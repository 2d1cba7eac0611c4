"""Regenerate the entire paper in one call.

Runs every figure, every in-text table and every extension study at
the chosen scale, concatenates the rendered outputs into one document
(with a pass/off summary up front), and optionally writes it — the
single artifact answering "does this reproduction still hold?".

Two things keep the sweep close to the cost of its *distinct* work
rather than the sum of its experiments:

* every experiment simulates through
  :func:`repro.experiments.common.simulate`, so catalog entries that
  revisit the untouched baseline config (six of them do) reuse the
  finished run via the content-addressed
  :class:`~repro.runcache.RunCache`;
* ``run(jobs=N)`` fans the catalog out over a process pool.  Each
  experiment is deterministic in the config, so records are computed
  in any order and merged back in catalog order — the rendered
  experiment bodies are byte-identical to a serial sweep.  (Only the
  timing/cache-counter lines of the summary vary run to run; pass
  ``include_timing=False`` to render without them.)  Before the pool
  starts, the runs of the sweep's own config that several pending
  experiments share (:data:`SHARED_RUNS`) are simulated once in this
  process, so the workers do not race to simulate them each.

Two more make the sweep *crash-safe*:

* the pool runs under the supervisor
  (:mod:`repro.experiments.supervisor`): per-task wall-clock
  timeouts, crashed-worker recovery, bounded retry with backoff, and
  serial fallback after repeated pool failure — a dead worker costs a
  retry, not the sweep;
* ``run(journal=PATH)`` (the CLI's ``--resume FILE``) appends one
  fsync'd JSON line per completed experiment
  (:mod:`repro.experiments.journal`); an interrupted sweep re-run with
  the same journal restarts from where it died, and the resumed
  report is byte-identical to an uninterrupted one.

Exposed on the CLI as ``python -m repro reproduce-all
[--jobs N] [--only MODULE] [--resume FILE] [--task-timeout S]
[--output FILE] [--no-timing] [--stats-json FILE]``.
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.config import ExperimentConfig
from repro.experiments import chaos
from repro.experiments.common import bench_config, simulate
from repro.experiments.journal import SweepJournal
from repro.experiments.supervisor import (
    SupervisorPolicy,
    TaskStats,
    supervise,
)
from repro.obs import runtime as _obs
from repro.obs.trace import WALL

#: (experiment name, module, extra run() kwargs) in paper order.
CATALOG: Tuple[Tuple[str, str, dict], ...] = (
    ("Figure 2", "fig02_throughput", {}),
    ("Figure 3", "fig03_gc", {}),
    ("Figure 4", "fig04_profile", {}),
    ("Figure 5", "fig05_cpi", {}),
    ("Figure 6", "fig06_branch", {}),
    ("Figure 7", "fig07_tlb", {}),
    ("Figure 8", "fig08_l1d", {}),
    ("Figure 9", "fig09_sources", {}),
    ("Figure 10", "fig10_correlation", {}),
    ("Utilization/disks (§4.1)", "tab_utilization", {}),
    ("Large pages (§4.2.2)", "tab_large_pages", {}),
    ("Locking/SYNC (§4.2.4)", "tab_locking", {}),
    ("Baselines (§5)", "tab_baselines", {}),
    ("JIT warm-up (§4.1.2)", "exp_warmup", {}),
    ("What-if ablation", "exp_whatif", {}),
    ("Heap sweep", "exp_heap_sweep", {}),
    ("Tuning walk (§3.3)", "exp_tuning", {}),
    ("Scaling (§7)", "exp_scaling", {}),
    ("Cluster (§7)", "exp_cluster", {}),
    ("Resilience (faults)", "exp_resilience", {}),
    ("Sampling methodology", "exp_methodology", {}),
)

#: Schema of the ``--stats-json`` artifact.  The pre-supervisor shape
#: (no ``schema`` key, no attempt accounting) is read back as v1;
#: schema 3 carried packed-sweep accounting that schema 4 drops.
SWEEP_STATS_SCHEMA = 4

#: The packed-sweep accounting keys of schema 3, dropped on migration.
_SCHEMA3_PACK_KEYS = (
    "packed",
    "batches",
    "planned_lanes",
    "packed_lanes",
    "pack_efficiency",
)


def catalog_modules() -> List[str]:
    """The catalog's module names, in paper order."""
    return [module_name for _, module_name, _ in CATALOG]


#: Runs of the sweep's own config that several experiments look up,
#: keyed by RNG fork (``None``: the baseline run; ``"workload"``: the
#: characterization run), with the experiments that look each one up.
#: A pool sweep simulates such a run once, before the pool forks, when
#: two or more pending experiments need it; otherwise two workers that
#: start on it at the same time both simulate it.
SHARED_RUNS: Dict[Optional[str], Tuple[str, ...]] = {
    None: (
        "fig02_throughput",
        "fig03_gc",
        "tab_utilization",
        "tab_baselines",
        "exp_heap_sweep",
        "exp_tuning",
        "exp_scaling",
        "exp_cluster",
        "exp_resilience",
    ),
    "workload": (
        "fig04_profile",
        "fig05_cpi",
        "fig06_branch",
        "fig07_tlb",
        "fig08_l1d",
        "fig09_sources",
        "fig10_correlation",
        "tab_large_pages",
        "tab_locking",
        "exp_warmup",
        "exp_whatif",
        "exp_scaling",
        "exp_methodology",
    ),
}


def shared_runs_to_presimulate(modules: List[str]) -> List[Tuple[Optional[str], str]]:
    """``(rng_fork, first user)`` of each shared run that two or more of
    ``modules`` (pending experiments, in catalog order) look up."""
    chosen = []
    for rng_fork, users in SHARED_RUNS.items():
        needing = [m for m in modules if m in users]
        if len(needing) >= 2:
            chosen.append((rng_fork, needing[0]))
    return chosen


def _presimulate_shared_runs(
    config: ExperimentConfig, pending: List[tuple]
) -> Dict[str, int]:
    """Simulate the shared runs in this process before the pool starts.

    Forked workers inherit the memory tier and any worker can read the
    disk tier, so each shared run is then simulated once.  Under a start
    method that does not fork, with no disk tier, the workers could not
    see the result, so nothing is simulated here.

    Returns ``{module: n}``: the misses to charge to each first user,
    whose own lookup becomes a hit on the result simulated here.
    """
    from repro.runcache import default_cache

    cache = default_cache()
    if multiprocessing.get_start_method() != "fork" and cache.disk_dir is None:
        return {}
    owed: Dict[str, int] = {}
    for rng_fork, first_user in shared_runs_to_presimulate([t[1] for t in pending]):
        before = cache.stats.snapshot()
        simulate(config, rng_fork=rng_fork)
        if cache.stats.since(before).misses:
            owed[first_user] = owed.get(first_user, 0) + 1
    return owed


@dataclass
class ReproductionRecord:
    """Outcome of one experiment in the sweep."""

    title: str
    module: str
    seconds: float
    rows_total: int
    rows_off: List[str]
    lines: List[str] = field(repr=False, default_factory=list)
    #: Run-cache lookups made while this experiment executed (memory
    #: and disk hits folded together).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Supervisor accounting: executions charged to this experiment,
    #: how many were retries, and how many of those hit the per-task
    #: wall-clock timeout.  A serial, failure-free run is 1/0/0.
    attempts: int = 1
    retries: int = 0
    timed_out: int = 0

    @property
    def clean(self) -> bool:
        return not self.rows_off

    def to_journal_dict(self) -> Dict[str, Any]:
        """The journal-line payload (lossless; lines stored verbatim)."""
        return {
            "title": self.title,
            "module": self.module,
            "seconds": self.seconds,
            "rows_total": self.rows_total,
            "rows_off": list(self.rows_off),
            "lines": list(self.lines),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "attempts": self.attempts,
            "retries": self.retries,
            "timed_out": self.timed_out,
        }

    @classmethod
    def from_journal_dict(cls, doc: Dict[str, Any]) -> "ReproductionRecord":
        return cls(
            title=doc["title"],
            module=doc["module"],
            seconds=float(doc["seconds"]),
            rows_total=int(doc["rows_total"]),
            rows_off=list(doc["rows_off"]),
            lines=list(doc["lines"]),
            cache_hits=int(doc.get("cache_hits", 0)),
            cache_misses=int(doc.get("cache_misses", 0)),
            attempts=int(doc.get("attempts", 1)),
            retries=int(doc.get("retries", 0)),
            timed_out=int(doc.get("timed_out", 0)),
        )


@dataclass
class ReproduceAllResult:
    config: ExperimentConfig
    records: Dict[str, ReproductionRecord]
    total_seconds: float
    #: Worker processes the sweep ran with (1 = serial).
    jobs: int = 1
    #: Modules restored from the resume journal instead of re-run.
    resumed: Tuple[str, ...] = ()
    #: Pool teardowns (worker crashes / timeouts) the supervisor
    #: survived; ``degraded`` is True if it fell back to serial.
    pool_failures: int = 0
    degraded: bool = False
    #: Window-execution engine the sweep ran on (native/fused/
    #: reference: the effective one, after any native fallback), and
    #: why it is not ``native`` when that was requested.  Only
    #: ``reference`` is named in the summary head: native and fused
    #: reports are the same bytes.
    engine: str = "fused"
    engine_reason: Optional[str] = None

    @property
    def rows_total(self) -> int:
        return sum(r.rows_total for r in self.records.values())

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.records.values())

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.records.values())

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records.values())

    @property
    def rows_off(self) -> List[Tuple[str, str]]:
        return [
            (r.title, label)
            for r in self.records.values()
            for label in r.rows_off
        ]

    def summary_lines(self, include_timing: bool = True) -> List[str]:
        """The pass/off summary.

        ``include_timing=False`` drops the wall-clock, per-experiment
        time, cache-counter and resume/retry fields — everything left
        is a pure function of the config, so two sweeps of the same
        config render it byte-identically regardless of ``jobs``,
        supervision history, or resumption.
        """
        head = (
            f"experiments: {len(self.records)}   "
            f"paper-vs-measured rows: {self.rows_total}   "
            f"off-band: {len(self.rows_off)}"
        )
        if self.engine == "reference":
            head += f"   engine: {self.engine}"
        if include_timing:
            head += f"   wall clock: {self.total_seconds:.0f}s"
        lines = ["=" * 72, "FULL REPRODUCTION SWEEP", "=" * 72, head]
        if include_timing:
            run_line = (
                f"jobs: {self.jobs}   run cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses"
            )
            if self.resumed:
                run_line += f"   resumed: {len(self.resumed)}"
            if self.total_retries:
                run_line += f"   retries: {self.total_retries}"
            if self.pool_failures:
                run_line += f"   pool failures: {self.pool_failures}"
            if self.degraded:
                run_line += "   (degraded to serial)"
            lines.append(run_line)
        lines.append("")
        columns = f"  {'experiment':30s} {'rows':>5} {'off':>4}"
        if include_timing:
            columns += f" {'time':>7} {'cache':>9}"
        lines.append(columns)
        for r in self.records.values():
            row = f"  {r.title:30s} {r.rows_total:>5} {len(r.rows_off):>4}"
            if include_timing:
                row += (
                    f" {r.seconds:>6.1f}s {r.cache_hits:>4}/{r.cache_misses:<4}"
                )
            lines.append(row)
        if self.rows_off:
            lines.append("")
            lines.append("  off-band rows (see EXPERIMENTS.md known gaps):")
            for title, label in self.rows_off:
                lines.append(f"    {title}: {label}")
        return lines

    def render_lines(self, include_timing: bool = True) -> List[str]:
        lines = self.summary_lines(include_timing=include_timing)
        for r in self.records.values():
            lines.append("")
            lines.extend(r.lines)
        return lines

    def stats_dict(self) -> Dict[str, Any]:
        """Machine-readable sweep stats (the CI perf-trajectory shape)."""
        return {
            "schema": SWEEP_STATS_SCHEMA,
            "wall_clock_s": round(self.total_seconds, 3),
            "jobs": self.jobs,
            "engine": self.engine,
            "engine_reason": self.engine_reason,
            "experiments": len(self.records),
            "rows_total": self.rows_total,
            "rows_off": len(self.rows_off),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "resumed": sorted(self.resumed),
            "pool_failures": self.pool_failures,
            "degraded": self.degraded,
            "per_experiment": {
                r.module: {
                    "seconds": round(r.seconds, 3),
                    "rows": r.rows_total,
                    "off": len(r.rows_off),
                    "cache_hits": r.cache_hits,
                    "cache_misses": r.cache_misses,
                    "attempts": r.attempts,
                    "retries": r.retries,
                    "timed_out": r.timed_out,
                }
                for r in self.records.values()
            },
        }


def load_stats_dict(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a ``--stats-json`` document to the schema-4 shape.

    Schema-4 documents pass through (copied).  Schema 3 loses its
    packed-sweep accounting keys; schema 2 (supervised pool, from
    before engine selection) gains the ``engine`` default.
    Pre-supervisor documents (no ``schema`` key) additionally gain
    ``resumed``/``pool_failures``/``degraded`` defaults and
    per-experiment ``attempts=1``, ``retries=0``, ``timed_out=0``.
    Anything else is rejected rather than half-parsed.
    """
    schema = doc.get("schema")
    if schema not in (SWEEP_STATS_SCHEMA, 3, 2, None):
        raise ValueError(f"unsupported sweep-stats schema: {schema!r}")
    migrated = dict(doc)
    migrated["schema"] = SWEEP_STATS_SCHEMA
    migrated.setdefault("engine", "fused")
    migrated.setdefault("engine_reason", None)
    for key in _SCHEMA3_PACK_KEYS:
        migrated.pop(key, None)
    if schema is None:
        migrated.setdefault("resumed", [])
        migrated.setdefault("pool_failures", 0)
        migrated.setdefault("degraded", False)
        per = {}
        for module, entry in dict(migrated.get("per_experiment", {})).items():
            entry = dict(entry)
            entry.setdefault("attempts", 1)
            entry.setdefault("retries", 0)
            entry.setdefault("timed_out", 0)
            per[module] = entry
        migrated["per_experiment"] = per
    return migrated


def _execute(task: Tuple[str, str, dict, ExperimentConfig]) -> ReproductionRecord:
    """Run one catalog entry and fold it into a record.

    Top-level (picklable) so it works as a process-pool target; the
    cache counters are read as a delta around the experiment so the
    record reports its own lookups whether it runs serially (shared
    in-process cache) or in a pool worker (per-worker cache, plus the
    optional shared disk tier).
    """
    from repro.runcache import default_cache

    title, module_name, kwargs, config = task
    # Chaos fault points (inert unless REPRO_CHAOS is armed *and* this
    # is a pool worker): the harness's own resilience is tested with
    # the same injection rigor the simulator applies to its SUT.
    chaos.fault_point("kill", module_name)
    chaos.fault_point("hang", module_name)
    stats = default_cache().stats
    before = stats.snapshot()
    module = importlib.import_module(f"repro.experiments.{module_name}")
    started = time.perf_counter()
    result = module.run(config, **kwargs)
    elapsed = time.perf_counter() - started
    delta = stats.since(before)
    obs = _obs._ACTIVE
    if obs is not None:
        obs.metrics.counter("experiments.completed").inc()
        obs.tracer.record(
            module_name,
            "experiment",
            start_s=started,
            duration_s=elapsed,
            clock=WALL,
            labels={"cache_hits": delta.hits + delta.disk_hits},
        )
    rows = result.rows()
    return ReproductionRecord(
        title=title,
        module=module_name,
        seconds=elapsed,
        rows_total=len(rows),
        rows_off=[r.label for r in rows if r.ok is False],
        lines=result.render_lines(),
        cache_hits=delta.hits + delta.disk_hits,
        cache_misses=delta.misses,
    )


def run(
    config: Optional[ExperimentConfig] = None,
    only: Optional[List[str]] = None,
    jobs: int = 1,
    journal: Optional[Union[str, "Path"]] = None,
    policy: Optional[SupervisorPolicy] = None,
) -> ReproduceAllResult:
    """Run the full catalog (or the named subset of module names).

    Args:
        config: experiment configuration (bench scale by default).
        only: subset of catalog module names to run.  Unknown names
            raise ``ValueError`` (listing the valid ones) instead of
            silently producing an empty — and clean-looking — sweep.
        jobs: worker processes; ``1`` runs serially in-process.  The
            merged records are in catalog order either way.
        journal: path of the resume journal.  Experiments already
            completed there (same config hash, seed and git describe)
            are restored instead of re-run; every fresh completion is
            appended durably (fsync per line).
        policy: supervisor policy for the ``jobs > 1`` pool (timeouts,
            retry budget, backoff, serial-degradation threshold).
    """
    config = config if config is not None else bench_config()
    known = catalog_modules()
    if only is not None:
        unknown = sorted(set(only) - set(known))
        if unknown:
            raise ValueError(
                f"unknown experiment module(s): {', '.join(unknown)}; "
                f"valid names: {', '.join(known)}"
            )
    tasks = [
        (title, module_name, kwargs, config)
        for title, module_name, kwargs in CATALOG
        if only is None or module_name in only
    ]

    sweep_journal = (
        SweepJournal.open(journal, config) if journal is not None else None
    )
    restored: Dict[str, ReproductionRecord] = {}
    pending = []
    if sweep_journal is not None:
        for task in tasks:
            doc = sweep_journal.completed.get(task[1])
            if doc is not None:
                restored[task[1]] = ReproductionRecord.from_journal_dict(doc)
            else:
                pending.append(task)
    else:
        pending = list(tasks)

    executed: Dict[str, ReproductionRecord] = {}

    def complete(record: ReproductionRecord) -> None:
        executed[record.module] = record
        if sweep_journal is not None:
            sweep_journal.append(record.to_journal_dict())

    sweep_start = time.perf_counter()
    pool_failures = 0
    degraded = False
    try:
        if jobs > 1 and len(pending) > 1:
            owed = _presimulate_shared_runs(config, pending)

            def on_result(index: int, record: ReproductionRecord, tstats: TaskStats) -> None:
                record.attempts = tstats.attempts
                record.retries = tstats.retries
                record.timed_out = tstats.timeouts
                # The presimulation stood in for this experiment's own
                # first lookup, which then hit.
                charged = owed.get(record.module, 0)
                record.cache_misses += charged
                record.cache_hits -= charged
                complete(record)

            outcome = supervise(
                _execute,
                pending,
                jobs,
                policy,
                on_result=on_result,
                worker_initializer=chaos.mark_pool_worker,
            )
            pool_failures = outcome.pool_failures
            degraded = outcome.degraded_serial
            _record_pool_observability(outcome.results, sweep_start)
        else:
            jobs = 1
            for task in pending:
                complete(_execute(task))
    finally:
        if sweep_journal is not None:
            sweep_journal.close()

    records: Dict[str, ReproductionRecord] = {}
    for _, module_name, _ in CATALOG:
        if only is not None and module_name not in only:
            continue
        record = executed.get(module_name) or restored.get(module_name)
        if record is not None:
            records[module_name] = record
    from repro.cpu.engine import effective_engine

    engine, engine_reason = effective_engine()
    return ReproduceAllResult(
        config=config,
        records=records,
        total_seconds=time.perf_counter() - sweep_start,
        jobs=jobs,
        resumed=tuple(sorted(restored)),
        pool_failures=pool_failures,
        degraded=degraded,
        engine=engine,
        engine_reason=engine_reason,
    )


def _record_pool_observability(
    records: List[ReproductionRecord], sweep_start: float
) -> None:
    """Fold pool-worker outcomes into the parent's session, if any.

    Workers run with their own (inactive) observability state, so the
    parent reconstructs the per-experiment spans from the returned
    records.  Durations are the workers' real measurements; start
    offsets are not knowable from here, so every span is anchored at
    the sweep start and labeled accordingly.
    """
    obs = _obs._ACTIVE
    if obs is None:
        return
    for record in records:
        if record is None:
            continue
        obs.metrics.counter("experiments.completed").inc()
        obs.tracer.record(
            record.module,
            "experiment",
            start_s=sweep_start,
            duration_s=record.seconds,
            clock=WALL,
            labels={"cache_hits": record.cache_hits, "worker": "pool"},
        )
