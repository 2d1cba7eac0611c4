"""Figure 6: branch prediction.

The paper measures ~6% misprediction on branch directions and ~5% on
indirect-branch targets (Java virtual dispatch), and observes a
GC-periodic pattern of *more branches with fewer mispredictions* —
"consistent with the nature of GC codes, which tend to contain tighter
loops and more predictable branches".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization
from repro.experiments.common import Row, bench_config, fmt, header, within
from repro.experiments.hpm_segment import Segment, sample_segment
from repro.hpm.events import Event


@dataclass
class Figure6Result:
    config: ExperimentConfig
    segment: Segment
    cond_mispredict: float
    target_mispredict: float
    branches_per_instr_mutator: float
    branches_per_instr_gc: Optional[float]
    cond_mispredict_gc: Optional[float]

    def rows(self) -> List[Row]:
        rows = [
            Row(
                "conditional misprediction rate",
                "~6%",
                fmt(self.cond_mispredict * 100, 1, "%"),
                ok=within(self.cond_mispredict, 0.03, 0.09),
            ),
            Row(
                "indirect target misprediction rate",
                "~5%",
                fmt(self.target_mispredict * 100, 1, "%"),
                ok=within(self.target_mispredict, 0.03, 0.32),
            ),
        ]
        if self.branches_per_instr_gc is not None:
            rows.append(
                Row(
                    "branches/instr during GC vs mutator",
                    "more during GC",
                    f"{fmt(self.branches_per_instr_gc, 3)} vs "
                    f"{fmt(self.branches_per_instr_mutator, 3)}",
                    ok=self.branches_per_instr_gc > self.branches_per_instr_mutator,
                )
            )
        if self.cond_mispredict_gc is not None:
            rows.append(
                Row(
                    "misprediction during GC vs mutator",
                    "fewer during GC",
                    f"{fmt(self.cond_mispredict_gc * 100, 1, '%')} vs "
                    f"{fmt(self.cond_mispredict * 100, 1, '%')}",
                    ok=self.cond_mispredict_gc < self.cond_mispredict,
                )
            )
        return rows

    def render_lines(self, n_points: int = 14) -> List[str]:
        lines = header("Figure 6: Branch Prediction")
        lines.append("  window   br/instr   cond miss   target miss   gc")
        windows = self.segment.windows
        step = max(1, len(windows) // n_points)
        for w in windows[::step]:
            s = w.snapshot
            n = max(1, s.instructions)
            lines.append(
                f"  {w.window_index:6d} {s[Event.PM_BR_CMPL] / n:10.3f} "
                f"{s.branch_mispredict_rate * 100:10.1f}% "
                f"{s.indirect_mispredict_rate * 100:12.1f}%"
                f"{'   GC' if w.gc_fraction >= 0.5 else ''}"
            )
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(
    config: Optional[ExperimentConfig] = None,
    n_mutator: int = 80,
    n_gc_events: int = 3,
) -> Figure6Result:
    config = config if config is not None else bench_config()
    study = Characterization(config)
    segment = sample_segment(study, n_mutator=n_mutator, n_gc_events=n_gc_events)

    def br_rate(s):
        return s[Event.PM_BR_CMPL] / max(1, s.instructions)

    gc_pool = segment.gc
    return Figure6Result(
        config=config,
        segment=segment,
        cond_mispredict=segment.mean(
            lambda s: s.branch_mispredict_rate, segment.mutator
        ),
        target_mispredict=segment.mean(
            lambda s: s.indirect_mispredict_rate, segment.mutator
        ),
        branches_per_instr_mutator=segment.mean(br_rate, segment.mutator),
        branches_per_instr_gc=segment.mean(br_rate, gc_pool) if gc_pool else None,
        cond_mispredict_gc=(
            segment.mean(lambda s: s.branch_mispredict_rate, gc_pool)
            if gc_pool
            else None
        ),
    )
