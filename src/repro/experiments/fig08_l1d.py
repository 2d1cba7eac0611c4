"""Figure 8: L1 data cache performance.

The paper: the L1D misses about once every 12 loads and once every 5
stores (~14% overall) — comparable to modern integer benchmarks but
much higher than older Java benchmarks.  During GC the *store* miss
rate drops (mark writes go to the compact bitmap) while the load miss
rate is relatively unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization
from repro.experiments.common import Row, bench_config, fmt, header, within
from repro.experiments.hpm_segment import Segment, sample_segment


@dataclass
class Figure8Result:
    config: ExperimentConfig
    segment: Segment
    load_miss: float
    store_miss: float
    overall_miss: float
    load_miss_gc: Optional[float]
    store_miss_gc: Optional[float]

    def rows(self) -> List[Row]:
        rows = [
            Row(
                "loads per L1D load miss",
                "~12",
                fmt(1.0 / max(1e-9, self.load_miss), 1),
                ok=within(self.load_miss, 0.055, 0.14),
            ),
            Row(
                "stores per L1D store miss",
                "~5",
                fmt(1.0 / max(1e-9, self.store_miss), 1),
                ok=within(self.store_miss, 0.12, 0.28),
            ),
            Row(
                "overall L1D miss rate",
                "~14%",
                fmt(self.overall_miss * 100, 1, "%"),
                ok=within(self.overall_miss, 0.09, 0.19),
            ),
        ]
        if self.store_miss_gc is not None:
            rows.append(
                Row(
                    "store miss rate during GC",
                    "lower than mutator",
                    f"{fmt(self.store_miss_gc * 100, 1, '%')} vs "
                    f"{fmt(self.store_miss * 100, 1, '%')}",
                    ok=self.store_miss_gc < self.store_miss,
                )
            )
        if self.load_miss_gc is not None:
            ratio = self.load_miss_gc / max(1e-9, self.load_miss)
            rows.append(
                Row(
                    "load miss rate during GC",
                    "relatively unchanged",
                    f"{fmt(self.load_miss_gc * 100, 1, '%')} vs "
                    f"{fmt(self.load_miss * 100, 1, '%')}",
                    ok=within(ratio, 0.4, 2.5),
                )
            )
        return rows

    def render_lines(self, n_points: int = 14) -> List[str]:
        lines = header("Figure 8: L1 Data Cache Performance")
        lines.append("  window   load miss   store miss   gc")
        windows = self.segment.windows
        step = max(1, len(windows) // n_points)
        for w in windows[::step]:
            s = w.snapshot
            lines.append(
                f"  {w.window_index:6d} {s.l1d_load_miss_rate * 100:10.1f}% "
                f"{s.l1d_store_miss_rate * 100:11.1f}%"
                f"{'   GC' if w.gc_fraction >= 0.5 else ''}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(
    config: Optional[ExperimentConfig] = None,
    n_mutator: int = 80,
    n_gc_events: int = 3,
) -> Figure8Result:
    config = config if config is not None else bench_config()
    study = Characterization(config)
    segment = sample_segment(study, n_mutator=n_mutator, n_gc_events=n_gc_events)
    mut, gc = segment.mutator, segment.gc
    return Figure8Result(
        config=config,
        segment=segment,
        load_miss=segment.mean(lambda s: s.l1d_load_miss_rate, mut),
        store_miss=segment.mean(lambda s: s.l1d_store_miss_rate, mut),
        overall_miss=segment.mean(lambda s: s.l1d_miss_rate, mut),
        load_miss_gc=(
            segment.mean(lambda s: s.l1d_load_miss_rate, gc) if gc else None
        ),
        store_miss_gc=(
            segment.mean(lambda s: s.l1d_store_miss_rate, gc) if gc else None
        ),
    )
