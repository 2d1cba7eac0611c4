"""Ablation: what-if estimates vs simulated outcomes.

For each enhancement scenario Section 4 proposes, this experiment
computes the first-order estimate from the measured characterization
(what an architect could do with the paper's data alone) and then
*actually simulates* the enhanced system, comparing the two.

What "good" looks like: every scenario's simulated CPI moves in the
estimated direction, and the ranking of scenarios by simulated benefit
matches the estimated ranking for the clearly-separated ones.  Exact
magnitudes are not expected to match — the estimates deliberately
ignore second-order effects (e.g. devirtualization also shrinks the
wrong-path fetch traffic), which is the point of validating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization, HardwareSummary
from repro.core.whatif import Estimate, WhatIfAnalyzer
from repro.experiments.common import Row, bench_config, header


@dataclass(frozen=True)
class ScenarioOutcome:
    """Estimated and simulated results for one scenario."""

    name: str
    description: str
    estimate: Estimate
    simulated_cpi: float

    @property
    def simulated_delta(self) -> float:
        return self.simulated_cpi - self.estimate.baseline_cpi

    @property
    def direction_agrees(self) -> bool:
        if abs(self.estimate.cpi_delta) < 0.005:
            return abs(self.simulated_delta) < 0.15
        return (self.estimate.cpi_delta < 0) == (self.simulated_delta < 0.02)


@dataclass
class WhatIfResult:
    config: ExperimentConfig
    baseline_cpi: float
    outcomes: Dict[str, ScenarioOutcome]

    def rows(self) -> List[Row]:
        rows = []
        for outcome in self.outcomes.values():
            rows.append(
                Row(
                    f"{outcome.name}: direction of effect",
                    f"est {outcome.estimate.cpi_delta:+.3f} CPI",
                    f"sim {outcome.simulated_delta:+.3f} CPI",
                    ok=outcome.direction_agrees,
                )
            )
        best_est = min(
            self.outcomes.values(), key=lambda o: o.estimate.cpi_delta
        )
        best_sim = min(self.outcomes.values(), key=lambda o: o.simulated_delta)
        rows.append(
            Row(
                "largest estimated gain also largest simulated",
                best_est.name,
                best_sim.name,
                ok=best_est.name == best_sim.name,
            )
        )
        return rows

    def render_lines(self) -> List[str]:
        lines = header("Ablation: What-If Estimates vs Simulation")
        lines.append(f"  baseline CPI: {self.baseline_cpi:.3f}")
        lines.append(
            f"  {'scenario':18s} {'estimated CPI':>14s} {'simulated CPI':>14s} "
            f"{'est delta':>10s} {'sim delta':>10s}"
        )
        for o in self.outcomes.values():
            lines.append(
                f"  {o.name:18s} {o.estimate.estimated_cpi:>14.3f} "
                f"{o.simulated_cpi:>14.3f} {o.estimate.cpi_delta:>+10.3f} "
                f"{o.simulated_delta:>+10.3f}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def _measure_cpi(config: ExperimentConfig, hw_windows: int) -> HardwareSummary:
    study = Characterization(config)
    samples = study.sample_windows(hw_windows)
    return HardwareSummary.from_snapshots([s.snapshot for s in samples])


def run(
    config: Optional[ExperimentConfig] = None, hw_windows: int = 60
) -> WhatIfResult:
    config = config if config is not None else bench_config()
    baseline = _measure_cpi(config, hw_windows)
    analyzer = WhatIfAnalyzer()
    estimates = {
        e.scenario: e
        for e in analyzer.estimate_all(baseline, config.machine.latencies)
    }

    outcomes: Dict[str, ScenarioOutcome] = {}
    for scenario in analyzer.scenarios:
        enhanced = scenario.apply(config)
        simulated = _measure_cpi(enhanced, hw_windows)
        outcomes[scenario.name] = ScenarioOutcome(
            name=scenario.name,
            description=scenario.description,
            estimate=estimates[scenario.name],
            simulated_cpi=simulated.cpi,
        )
    return WhatIfResult(
        config=config, baseline_cpi=baseline.cpi, outcomes=outcomes
    )
