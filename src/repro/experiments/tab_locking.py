"""Section 4.2.4: locking, contention, and SYNC cost.

Paper numbers reproduced here:

* a LARX executes about once every 600 user-level instructions;
* assuming ~20 surrounding instructions per acquisition, ~3% of
  instructions go to lock acquisition;
* STCX failures are rare — frequent locking but "relatively little
  lock contention or spin-locking" (the paper's proxy was ~2% of
  cycles in pthread_mutex_lock);
* a SYNC request sits in the store-reorder queue <1% of user-level
  cycles but ~7% of privileged-code cycles;
* GC executes far fewer SYNCs than mutator code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ExperimentConfig
from repro.core.characterization import Characterization
from repro.cpu.core_model import StaticSchedule
from repro.cpu.engine import core_model_class
from repro.cpu.phases import PhaseDescriptor, kernel_profile
from repro.cpu.regions import AddressSpace
from repro.experiments.common import Row, bench_config, fmt, header, within
from repro.experiments.hpm_segment import sample_segment
from repro.hpm.events import Event
from repro.util.rng import RngFactory

#: Instructions around each LARX spent on the acquisition path (the
#: paper's assumption when estimating the ~3% overhead).
ACQUISITION_OVERHEAD_INSTR = 20


@dataclass
class LockingResult:
    config: ExperimentConfig
    instr_per_larx: float
    lock_acquisition_share: float
    stcx_fail_rate: float
    sync_srq_user: float
    sync_srq_kernel: float
    sync_per_instr_mutator: float
    sync_per_instr_gc: Optional[float]

    def rows(self) -> List[Row]:
        rows = [
            Row(
                "instructions per LARX",
                "~600",
                fmt(self.instr_per_larx, 0),
                ok=within(self.instr_per_larx, 380, 950),
            ),
            Row(
                "share of instructions acquiring locks",
                "~3%",
                fmt(self.lock_acquisition_share * 100, 1, "%"),
                ok=within(self.lock_acquisition_share, 0.015, 0.06),
            ),
            Row(
                "STCX failure rate (contention proxy)",
                "little contention",
                fmt(self.stcx_fail_rate * 100, 1, "%"),
                ok=self.stcx_fail_rate < 0.05,
            ),
            Row(
                "SYNC in SRQ, user-level cycles",
                "<1%",
                fmt(self.sync_srq_user * 100, 2, "%"),
                ok=self.sync_srq_user < 0.01,
            ),
            Row(
                "SYNC in SRQ, privileged cycles",
                "~7%",
                fmt(self.sync_srq_kernel * 100, 1, "%"),
                ok=within(self.sync_srq_kernel, 0.03, 0.12),
            ),
        ]
        if self.sync_per_instr_gc is not None:
            rows.append(
                Row(
                    "SYNCs during GC vs mutator",
                    "far fewer during GC",
                    f"{self.sync_per_instr_gc:.2e} vs "
                    f"{self.sync_per_instr_mutator:.2e} /instr",
                    ok=self.sync_per_instr_gc
                    < self.sync_per_instr_mutator * 0.75,
                )
            )
        return rows

    def render_lines(self) -> List[str]:
        lines = header("Section 4.2.4: Locking, Contention, and SYNC Cost")
        lines.extend(r.render() for r in self.rows())
        return lines


def _kernel_sync_fraction(config: ExperimentConfig, n_windows: int = 10) -> float:
    """SRQ occupancy of privileged code, measured in isolation."""
    rngs = RngFactory(config.seed + 7)
    space = AddressSpace.build(config.machine, config.jvm, config.workload.sharing)
    kernel = kernel_profile(rngs.stream("k"), space)
    schedule = StaticSchedule(
        PhaseDescriptor(slices=((kernel, 1.0),), label="kernel")
    )
    core = core_model_class()(config.machine, space, schedule, config.sampling, rngs)
    core.warm_up(range(3))
    snaps = [core.execute_window(i) for i in range(n_windows)]
    agg = snaps[0]
    for s in snaps[1:]:
        agg = agg.merged_with(s)
    return agg.sync_srq_fraction


def run(
    config: Optional[ExperimentConfig] = None,
    n_mutator: int = 60,
    n_gc_events: int = 3,
) -> LockingResult:
    config = config if config is not None else bench_config()
    study = Characterization(config)
    segment = sample_segment(study, n_mutator=n_mutator, n_gc_events=n_gc_events)

    mut, gc = segment.mutator, segment.gc

    def per_instr(event: Event):
        return lambda s: s[event] / max(1, s.instructions)

    larx_rate = segment.mean(per_instr(Event.PM_LARX), mut)
    instr_per_larx = 1.0 / max(1e-12, larx_rate)
    return LockingResult(
        config=config,
        instr_per_larx=instr_per_larx,
        lock_acquisition_share=larx_rate * (ACQUISITION_OVERHEAD_INSTR + 2),
        stcx_fail_rate=segment.mean(
            lambda s: s[Event.PM_STCX_FAIL] / max(1, s[Event.PM_STCX]), mut
        ),
        sync_srq_user=segment.mean(lambda s: s.sync_srq_fraction, mut),
        sync_srq_kernel=_kernel_sync_fraction(config),
        sync_per_instr_mutator=segment.mean(per_instr(Event.PM_SYNC_CNT), mut),
        sync_per_instr_gc=(
            segment.mean(per_instr(Event.PM_SYNC_CNT), gc) if gc else None
        ),
    )
