"""The CPI correlation study (Section 4.3, Figure 10).

The study quantifies how strongly each sampled hardware event co-varies
with CPI across sampling intervals.  Two structural constraints of the
real HPM shape the implementation:

* Only one eight-event counter group is active at a time, so each
  group is measured over its *own* stretch of windows — exactly like a
  measurement campaign cycling hpmstat through groups during one long
  run.  Events from different groups are never correlated against each
  other ("it is not possible to correlate CPI with various data cache
  counts presented in Figure 9", as the paper notes for its own gaps).
* Every group carries cycles + completed instructions, so CPI is
  always available *within* the group — which is what makes the whole
  Figure 10 possible.

Counts are correlated raw (per fixed-length sampling window), matching
the paper: a window that stalls more completes fewer instructions, so
"productive" events (cycles-with-completion, instructions fetched from
L1I) come out negatively correlated with CPI and stall-causing events
positively.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hpm.counters import CounterSnapshot
from repro.hpm.events import BASE_EVENTS, Event
from repro.hpm.groups import CounterGroup, default_catalog
from repro.hpm.hpmstat import HpmSample, HpmStat
from repro.util.stats import pearson


def _cpi(snapshot: CounterSnapshot) -> float:
    return snapshot.cpi


@dataclass(frozen=True)
class EventCorrelation:
    """Correlation of one event's raw count with CPI."""

    event: Event
    r: float
    group: str
    n_samples: int


@dataclass
class CpiCorrelationReport:
    """The full Figure 10 payload plus the in-text special pairs."""

    correlations: Dict[Event, EventCorrelation] = field(default_factory=dict)
    #: r(target-address mispredictions, instructions fetched beyond L1)
    #: within the ifetch group — the paper's "strongly correlated"
    #: claim tying virtual-dispatch misprediction to I-cache misses.
    r_target_miss_vs_icache_miss: Optional[float] = None
    #: r(speculation rate, L1D miss rate) — the paper reports ~0.1.
    r_speculation_vs_l1_miss: Optional[float] = None
    #: r(branches, target mispredictions) — the paper reports -0.07.
    r_branches_vs_target_miss: Optional[float] = None
    #: r(conditional mispredictions, branches) — the paper reports 0.43.
    r_cond_miss_vs_branches: Optional[float] = None

    def bars(self) -> List[Tuple[str, float]]:
        """(label, r) pairs ordered most-positive first — Figure 10."""
        ordered = sorted(
            self.correlations.values(), key=lambda c: c.r, reverse=True
        )
        return [(c.event.value, c.r) for c in ordered]

    def r_of(self, event: Event) -> float:
        return self.correlations[event].r

    def strongest(self, n: int = 5) -> List[EventCorrelation]:
        """The ``n`` strongest correlates by |r|."""
        return sorted(
            self.correlations.values(), key=lambda c: abs(c.r), reverse=True
        )[:n]


def _fold_group(
    report: CpiCorrelationReport,
    group: CounterGroup,
    samples: Sequence[HpmSample],
) -> None:
    """Fold one group's samples into ``report`` (shared by both campaigns)."""
    snapshots = [s.snapshot for s in samples]
    cpis = [_cpi(s) for s in snapshots]
    for event in group.events:
        if event in BASE_EVENTS:
            continue
        counts = [float(s[event]) for s in snapshots]
        r = pearson(counts, cpis)
        existing = report.correlations.get(event)
        # An event can live in several groups; keep the estimate
        # from the larger sample (ties: first seen).
        if existing is None or len(samples) > existing.n_samples:
            report.correlations[event] = EventCorrelation(
                event=event, r=r, group=group.name, n_samples=len(samples)
            )
    _fold_special_pairs(report, group.name, snapshots)


def _fold_special_pairs(
    report: CpiCorrelationReport,
    group_name: str,
    snapshots: Sequence[CounterSnapshot],
) -> None:
    e = Event
    if group_name == "ifetch":
        ta = [float(s[e.PM_BR_MPRED_TA]) for s in snapshots]
        icache_miss = [
            float(
                s[e.PM_INST_FROM_L2] + s[e.PM_INST_FROM_L3] + s[e.PM_INST_FROM_MEM]
            )
            for s in snapshots
        ]
        report.r_target_miss_vs_icache_miss = pearson(ta, icache_miss)
    elif group_name == "basic":
        spec = [s.speculation_rate for s in snapshots]
        l1_miss = [s.l1d_miss_rate for s in snapshots]
        report.r_speculation_vs_l1_miss = pearson(spec, l1_miss)
    elif group_name == "branch":
        branches = [float(s[e.PM_BR_CMPL]) for s in snapshots]
        ta = [float(s[e.PM_BR_MPRED_TA]) for s in snapshots]
        cond = [float(s[e.PM_BR_MPRED_CR]) for s in snapshots]
        report.r_branches_vs_target_miss = pearson(branches, ta)
        report.r_cond_miss_vs_branches = pearson(cond, branches)


class CpiCorrelationStudy:
    """Runs the group-by-group correlation campaign on one shared core.

    This is the single-machine campaign: every group samples the *same*
    executor, so group *k*'s windows run against hardware state warmed
    by groups ``0..k-1`` (exactly like cycling hpmstat through groups
    during one long run).  It is inherently sequential; the
    parallelizable campaign is :func:`run_group_campaign`.
    """

    def __init__(self, hpmstat: HpmStat):
        self.hpmstat = hpmstat

    # ------------------------------------------------------------------
    def run(
        self,
        windows_per_group: int,
        start_window: int = 0,
        stride: int = 1,
    ) -> CpiCorrelationReport:
        """Measure every group over consecutive window segments.

        Group *k* samples windows ``start + k*windows_per_group*stride``
        onward — disjoint stretches of the same run, as a real campaign
        would produce.
        """
        if windows_per_group < 3:
            raise ValueError("need at least 3 windows per group")
        report = CpiCorrelationReport()
        for k, group in enumerate(self.hpmstat.catalog):
            base = start_window + k * windows_per_group * stride
            indices = [base + j * stride for j in range(windows_per_group)]
            samples = self.hpmstat.sample_group(group.name, indices)
            _fold_group(report, group, samples)
        return report


# ----------------------------------------------------------------------
# The parallel per-group campaign
# ----------------------------------------------------------------------
#
# Each counter group is measured as a fully independent task: its own
# core model seeded from group-named RNG forks (stateless in the config
# seed, so task order cannot matter) executing its own stretch of the
# workload timeline.  That independence is what makes the campaign
# legally parallel — fan the groups over a process pool and the merged
# report is byte-identical to running them one after another.
# Windows *within* a group stay sequential because cache and predictor
# state persists across them.

#: Per-process memo of Characterization studies, keyed by the config's
#: content address.  A pool worker receives several group tasks for the
#: same config; the workload simulation and code model are built once.
_WORKER_STUDIES: Dict[str, object] = {}


def _worker_study(config, include_kernel: bool):
    from repro.core.characterization import Characterization
    from repro.runcache import config_key

    key = f"{config_key(config)}:{include_kernel}"
    study = _WORKER_STUDIES.get(key)
    if study is None:
        study = Characterization(config, include_kernel=include_kernel)
        _WORKER_STUDIES[key] = study
    return study


def _sample_group_task(task) -> List[HpmSample]:
    """Sample one group's stretch of windows on its own core.

    Top-level (picklable) so it can run in a pool worker; the serial
    fallback calls it directly with the same task tuples.
    """
    config, include_kernel, group_name, windows_per_group, base, stride = task
    study = _worker_study(config, include_kernel)
    hpm = study.group_hpm(group_name)
    indices = [base + j * stride for j in range(windows_per_group)]
    return hpm.sample_group(group_name, indices)


def run_group_campaign(
    config,
    windows_per_group: int,
    start_window: int = 0,
    stride: int = 1,
    jobs: int = 1,
    include_kernel: bool = False,
) -> CpiCorrelationReport:
    """Run the Figure 10 campaign with per-group cores, optionally parallel.

    Args:
        config: the :class:`~repro.config.ExperimentConfig` to measure.
        windows_per_group: windows sampled per counter group.
        start_window: first window of group 0's stretch; group *k*
            starts ``k * windows_per_group * stride`` later.
        stride: spacing between sampled windows.
        jobs: worker processes; ``1`` (the default) runs serially
            in-process.  Results are merged in catalog order either
            way, so the report is byte-identical regardless of ``jobs``.
        include_kernel: forwarded to the per-group characterizations.
    """
    if windows_per_group < 3:
        raise ValueError("need at least 3 windows per group")
    catalog = default_catalog()
    groups = list(catalog)
    tasks = [
        (
            config,
            include_kernel,
            group.name,
            windows_per_group,
            start_window + k * windows_per_group * stride,
            stride,
        )
        for k, group in enumerate(groups)
    ]
    results: Optional[List[List[HpmSample]]] = None
    if jobs > 1 and len(tasks) > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
        except (ImportError, NotImplementedError, OSError):
            # No usable multiprocessing primitives (some sandboxes):
            # the campaign still completes, just serially.
            pool = None
        if pool is not None:
            with pool:
                results = list(pool.map(_sample_group_task, tasks))
    if results is None:
        results = [_sample_group_task(task) for task in tasks]
    report = CpiCorrelationReport()
    for group, samples in zip(groups, results):
        _fold_group(report, group, samples)
    return report


@dataclass(frozen=True)
class SeriesCorrelation:
    """Correlation of one named series against a target series."""

    name: str
    r: float
    n_samples: int


def correlate_against(
    target: Sequence[float], columns: Dict[str, Sequence[float]]
) -> List[SeriesCorrelation]:
    """Correlate every named series in ``columns`` against ``target``.

    The host-window series adapter: the self-characterization profiler
    (:mod:`repro.perf.selfcorr`) feeds per-window *host* seconds as the
    target and per-window simulated event counts as the columns —
    Figure 10's methodology turned inward, asking which simulated
    activity predicts what the reproduction itself costs to run.
    Columns whose length doesn't match the target are rejected; results
    come back sorted most-positive r first, ties broken by name so the
    ordering is deterministic.
    """
    n = len(target)
    out: List[SeriesCorrelation] = []
    for name in sorted(columns):
        series = columns[name]
        if len(series) != n:
            raise ValueError(
                f"series {name!r} has {len(series)} samples, target has {n}"
            )
        out.append(SeriesCorrelation(name=name, r=pearson(series, target), n_samples=n))
    out.sort(key=lambda c: (-c.r, c.name))
    return out


def correlation_matrix(
    columns: Dict[str, Sequence[float]]
) -> Dict[Tuple[str, str], float]:
    """All-pairs Pearson correlations of named, equal-length series.

    General-purpose helper for users with full (non-group-limited)
    data, e.g. from :meth:`repro.hpm.hpmstat.HpmStat.sample_all`.
    """
    names = sorted(columns)
    out: Dict[Tuple[str, str], float] = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            out[(a, b)] = pearson(columns[a], columns[b])
    return out
