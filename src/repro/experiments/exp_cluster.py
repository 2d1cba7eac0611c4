"""Future work (Section 7): single server vs a cluster of blades.

Compares the paper's single-server deployment (everything on one
4-core box) against three-tier blade deployments of the same total
core count, and a scaled-out variant.  Expected shape:

* at equal cores the single server wins or ties — no interconnect
  hops, and any tier can borrow the shared CPUs (the paper: a single
  server "tends to deliver excellent performance");
* the cluster's bottleneck is a specific tier (the app blades for this
  workload), so scaling out app blades recovers throughput;
* each app blade's smaller heap collects more often than the single
  server's 1 GB heap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import ExperimentConfig
from repro.experiments.common import Row, bench_config, header, simulate
from repro.workload.cluster import ClusterLayout, ClusterRunResult, ClusterSUT
from repro.workload.metrics import BenchmarkReport, evaluate_run


@dataclass
class ClusterResult:
    config: ExperimentConfig
    single: BenchmarkReport
    clusters: Dict[str, ClusterRunResult]

    def rows(self) -> List[Row]:
        equal = self.clusters["equal-cores"]
        scaled = self.clusters["scaled-out"]
        return [
            Row(
                "single server beats equal-core cluster",
                "single wins/ties",
                f"{self.single.jops:.0f} vs {equal.jops:.0f} JOPS",
                ok=self.single.jops >= equal.jops * 0.97,
            ),
            Row(
                "cluster bottleneck is one tier",
                "app tier",
                equal.bottleneck_tier,
                ok=equal.bottleneck_tier == "app",
            ),
            Row(
                "scaling out the bottleneck tier helps",
                "more JOPS",
                f"{equal.jops:.0f} -> {scaled.jops:.0f}",
                ok=scaled.jops > equal.jops,
            ),
            Row(
                "blade heaps collect more often",
                "smaller heaps",
                f"{sum(equal.gc_events_per_blade)} blade GCs vs "
                f"{self.single.gc_count} single-server GCs",
                ok=sum(equal.gc_events_per_blade) > self.single.gc_count,
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Section 7 (future work): Single Server vs Blade Cluster")
        lines.append(
            f"  {'deployment':>14} {'cores':>6} {'JOPS':>7} {'p90 web':>8} "
            f"{'web%':>6} {'app%':>6} {'db%':>6} {'pass':>5}"
        )
        lines.append(
            f"  {'single-server':>14} {self.config.machine.topology.n_cores:>6} "
            f"{self.single.jops:>7.1f} {self.single.p90_web_s:>8.2f} "
            f"{'-':>6} {'-':>6} {'-':>6} "
            f"{'yes' if self.single.passed else 'NO':>5}"
        )
        for name, c in self.clusters.items():
            p90 = c.p90_web_s if c.p90_web_s is not None else float("nan")
            lines.append(
                f"  {name:>14} {c.layout.total_cores:>6} {c.jops:>7.1f} "
                f"{p90:>8.2f} "
                f"{c.tier_utilization['web'] * 100:>5.0f}% "
                f"{c.tier_utilization['app'] * 100:>5.0f}% "
                f"{c.tier_utilization['db'] * 100:>5.0f}% "
                f"{'yes' if c.passed else 'NO':>5}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


#: The deployments compared with the single server.
LAYOUTS = {
    # Same total core count as the single server (1 + 2x1 + 1 = 4).
    "equal-cores": ClusterLayout(
        web_cores=1, app_blades=2, app_cores_per_blade=1, db_cores=1
    ),
    # Scale out the app tier (the bottleneck).
    "scaled-out": ClusterLayout(
        web_cores=1, app_blades=3, app_cores_per_blade=2, db_cores=1
    ),
}


def run(config: Optional[ExperimentConfig] = None) -> ClusterResult:
    config = config if config is not None else bench_config()
    single = evaluate_run(simulate(config))
    clusters = {
        name: ClusterSUT(config, layout).run() for name, layout in LAYOUTS.items()
    }
    return ClusterResult(config=config, single=single, clusters=clusters)
