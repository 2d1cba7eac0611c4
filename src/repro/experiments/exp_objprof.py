"""Object-centric heap profile: top inefficient objects + what-ifs.

The DJXPerf workflow (arxiv 2104.03388) applied to the simulated
system: run the workload under :mod:`repro.obs.objprof`, charge every
data-side miss event to an allocation site, rank the sites by
penalty-weighted misses ("top inefficient objects"), and then predict
— and *validate by re-simulation* — the CPI win from fixing the worst
ones (shrink the top site's footprint, lifetime-segregate the churn
sites).

What "good" looks like:

* the per-site byte ledger reconciles exactly with the heap's
  aggregate live / fresh / dark-matter counters;
* the ranking is deterministic under a fixed seed (golden-tested);
* each object-centric what-if's simulated CPI moves in the estimated
  direction (same tolerance discipline as ``exp_whatif``).

The profiled windows bypass the run cache, so this experiment is
slower per window than the others — the default window budget is
accordingly smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization, HardwareSummary
from repro.core.whatif import Estimate, objprof_scenarios
from repro.experiments.common import Row, bench_config, header
from repro.experiments.exp_whatif import ScenarioOutcome, _measure_cpi
from repro.hpm.events import Event
from repro.obs import objprof
from repro.obs.metrics import MetricsRegistry, snapshot_delta


@dataclass
class ObjProfResult:
    config: ExperimentConfig
    profile: objprof.SiteProfile
    hw: HardwareSummary
    #: ``snapshot_delta`` of the objprof metrics export between the
    #: first and second half of the sampled windows.
    windowed: Dict[str, object]
    #: Per-heap ledger reconciliation checks (all must be True).
    reconciliation: Dict[str, bool]
    top_n: int = 5
    #: L1D load misses summed over the sampled-window snapshots (the
    #: charged total is >= this: warmup windows are profiled too).
    sampled_ld_misses: int = 0
    outcomes: Dict[str, ScenarioOutcome] = field(default_factory=dict)
    estimates: Dict[str, Estimate] = field(default_factory=dict)

    def rows(self) -> List[Row]:
        rows = [
            Row(
                "site byte ledger reconciles with heap aggregates",
                "exact",
                ", ".join(
                    f"{k}={'ok' if v else 'MISMATCH'}"
                    for k, v in sorted(self.reconciliation.items())
                ),
                ok=all(self.reconciliation.values()),
            ),
            Row(
                "every sampled L1D load miss charged to a site",
                f">= {self.sampled_ld_misses}",
                f"{self.profile.total(objprof.SLOT_LD_MISS)}",
                ok=self.profile.total(objprof.SLOT_LD_MISS)
                >= self.sampled_ld_misses
                > 0,
            ),
        ]
        for outcome in self.outcomes.values():
            rows.append(
                Row(
                    f"{outcome.name}: direction of effect",
                    f"est {outcome.estimate.cpi_delta:+.3f} CPI",
                    f"sim {outcome.simulated_delta:+.3f} CPI",
                    ok=outcome.direction_agrees,
                )
            )
        return rows

    def render_lines(self) -> List[str]:
        lines = header("Object-Centric Heap Profile (objprof)")
        lines.extend(self.profile.render_lines(self.top_n))
        lines.append("")
        counters = self.windowed.get("counters", {})
        windowed_misses = sum(
            v
            for k, v in counters.items()
            if k.startswith("objprof.site.ld_miss")
        )
        lines.append(
            f"  second-half window delta: {windowed_misses:.0f} attributed "
            f"L1D load misses across "
            f"{sum(1 for k in counters if k.startswith('objprof.site.ld_miss'))} "
            f"sites"
        )
        if self.estimates:
            lines.append("")
            lines.append("object-centric what-ifs:")
            for name, est in self.estimates.items():
                sim = self.outcomes.get(name)
                sim_txt = (
                    f" sim delta {sim.simulated_delta:+.3f}"
                    if sim is not None
                    else " (not validated)"
                )
                lines.append(
                    f"  {name:18s} est CPI {est.baseline_cpi:.3f} -> "
                    f"{est.estimated_cpi:.3f} ({est.cpi_delta:+.3f}){sim_txt}"
                )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines

    def to_dict(self) -> Dict[str, object]:
        out = self.profile.to_dict(self.top_n)
        out["reconciliation"] = dict(self.reconciliation)
        out["baseline_cpi"] = self.hw.cpi
        out["whatif"] = {
            name: {
                "estimated_cpi_delta": est.cpi_delta,
                "simulated_cpi_delta": (
                    self.outcomes[name].simulated_delta
                    if name in self.outcomes
                    else None
                ),
                "direction_agrees": (
                    self.outcomes[name].direction_agrees
                    if name in self.outcomes
                    else None
                ),
            }
            for name, est in self.estimates.items()
        }
        return out


def run(
    config: Optional[ExperimentConfig] = None,
    hw_windows: int = 48,
    top_n: int = 5,
    validate: bool = True,
    validate_windows: Optional[int] = None,
) -> ObjProfResult:
    """Profile ``hw_windows`` windows object-centrically.

    ``validate=False`` skips the what-if re-simulations (the estimates
    are still computed) — the CI smoke job uses this to stay fast.
    ``validate_windows`` sizes the re-simulation campaigns separately
    from the profiled windows (CPI deltas of a few hundredths need
    more windows than a site ranking does); it defaults to
    ``max(hw_windows, 80)`` so a short profiling run still validates
    against a noise-stable CPI measurement.
    """
    config = config if config is not None else bench_config()
    first = max(1, hw_windows // 2)
    rest = hw_windows - first
    with objprof.profile_objects() as prof:
        study = Characterization(config)
        samples = study.sample_windows(first)
        registry_a = MetricsRegistry()
        prof.export_metrics(registry_a)
        snap_a = registry_a.snapshot()
        if rest:
            samples += study.sample_windows(rest, start=first)
        registry_b = MetricsRegistry()
        prof.export_metrics(registry_b)
        snap_b = registry_b.snapshot()
        windowed = snapshot_delta(snap_a, snap_b)

        hw = HardwareSummary.from_snapshots([s.snapshot for s in samples])
        profile = prof.build_profile(
            config.machine.latencies, instructions=hw.instructions
        )
        reconciliation: Dict[str, bool] = {"fresh": True, "dark": True, "live": True}
        for ledger in prof.ledgers:
            for key, ok in ledger.reconcile().items():
                reconciliation[key] = reconciliation[key] and ok

    result = ObjProfResult(
        config=config,
        profile=profile,
        hw=hw,
        windowed=windowed,
        reconciliation=reconciliation,
        top_n=top_n,
        sampled_ld_misses=sum(
            s.snapshot[Event.PM_LD_MISS_L1] for s in samples
        ),
    )

    scenarios = objprof_scenarios(profile)
    latencies = config.machine.latencies
    for scenario in scenarios:
        result.estimates[scenario.name] = scenario.estimate(hw, latencies)
    if validate:
        # Outside the profiling session: the enhanced runs use the
        # normal cache + engine paths.
        n_validate = (
            validate_windows
            if validate_windows is not None
            else max(hw_windows, 80)
        )
        baseline = _measure_cpi(config, n_validate)
        for scenario in scenarios:
            enhanced = scenario.apply(config)
            simulated = _measure_cpi(enhanced, n_validate)
            est = result.estimates[scenario.name]
            result.outcomes[scenario.name] = ScenarioOutcome(
                name=scenario.name,
                description=scenario.description,
                estimate=Estimate(
                    scenario=est.scenario,
                    baseline_cpi=baseline.cpi,
                    estimated_cpi=max(0.1, baseline.cpi + est.cpi_delta),
                ),
                simulated_cpi=simulated.cpi,
            )
    return result
