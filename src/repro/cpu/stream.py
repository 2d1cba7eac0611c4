"""The synthetic instruction-stream generator.

One :class:`SliceRunner` executes one phase profile's share of a
sampling window against the core's stateful structures (L1s, ERATs,
TLB, predictors, prefetcher).  The generator works at *fetch block*
granularity — a straight-line run of instructions ended by a branch —
which keeps Python overhead per simulated instruction low while still
driving every structure with an individually generated address or
branch event:

* instruction fetch walks real addresses through the active method's
  code, touching the L1I and the I-side translation path line by line;
* each memory operation picks a region from the profile's mix, then an
  address using a page-dwell locality model (repeat touches to a 4 KB
  neighborhood) or a sequential scan pointer (streams);
* each block ends with a conditional or indirect branch resolved by
  the real predictor tables;
* LARX/STCX pairs and SYNCs are injected at the profile's densities
  (Section 4.2.4 of the paper).

Determinism: all draws come from the single ``random.Random`` passed
in; no global state.

Kernel structure
----------------
:meth:`SliceRunner.run_until` is the simulator's single hottest loop —
every modeled instruction, memory access and branch passes through it.
Engine ``native`` (the default) runs it as one fused kernel in C
(:mod:`repro.cpu.native`): the whole per-block pipeline (I-fetch,
translation, L1 probes, prefetch cover, branch resolution, cycle
accounting, objprof site attribution) inlined into one loop over the
core's way lists and predictor tables.  Everywhere else — another
engine, a failed build, a declined slice, a subclassed or patched
collaborator — the slice runs :meth:`SliceRunner._run_generic`, the
readable block pipeline below that drives the structures through
their public methods.

Both paths draw the RNG in exactly the same sequence and add the same
floats into the accountant's ``cycles`` in the same order, so they are
bit-identical to each other and to the pinned reference in
:mod:`repro.cpu.reference` — asserted by tests and by
``benchmarks/test_core_kernels.py``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro.cpu import native as _native
from repro.cpu.branch import BranchUnit
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.engine import default_engine
from repro.cpu.hierarchy import MemorySystem
from repro.cpu.phases import CodeUnit, PhaseProfile
from repro.cpu.prefetch import StreamPrefetcher
from repro.cpu.pipeline import PipelineAccountant
from repro.cpu.regions import AddressSpace, Region
from repro.cpu.translation import TranslationUnit
from repro.hpm.counters import CounterBank
from repro.hpm.events import Event
from repro.obs import objprof as _objprof
from repro.obs import runtime as _obs
from repro.obs.trace import WALL

#: Bytes per instruction on the modeled ISA (fixed-width PowerPC).
INSTR_BYTES = 4
#: Sequential scan pointers advance by this many bytes per fresh load.
SEQ_LOAD_STEP = 128
#: ... and per fresh store (allocation writes several words per line).
SEQ_STORE_STEP = 64
#: Probability an STCX fails (brief contention; the paper finds
#: "relatively little lock contention").
STCX_FAIL_P = 0.015
#: Mean scan-chunk length in accesses (see the scan branch of the
#: address picker in ``_data_address``).
SCAN_CHUNK = 24.0
_INV_SCAN_CHUNK = 1.0 / SCAN_CHUNK

# Method names whose presence in an instance __dict__ means the object
# has been instance-patched (e.g. a test spy) — the fused C kernel would
# bypass the patch, so SliceRunner falls back to the generic path.
_PATCHED_MEMORY_METHODS = frozenset({"load", "store", "fetch"})
_PATCHED_TRANSLATION_METHODS = frozenset(
    {"translate_data", "translate_inst", "translate_data_code", "translate_inst_code"}
)
_PATCHED_BRANCH_METHODS = frozenset({"conditional", "indirect"})
_PATCHED_ACCT_METHODS = frozenset(
    {
        "add_instructions",
        "charge_load",
        "charge_store",
        "charge_stream_alloc",
        "charge_fetch",
        "charge_data_translation",
        "charge_inst_translation",
        "charge_conditional_mispredict",
        "charge_target_mispredict",
        "charge_sync",
        "charge_stcx_fail",
    }
)


def _weighted_cum(pairs: List[Tuple[Region, float]]) -> Tuple[List[Region], List[float]]:
    regions = [r for r, _ in pairs]
    cum: List[float] = []
    acc = 0.0
    for _, w in pairs:
        acc += w
        cum.append(acc)
    return regions, cum


class SliceRunner:
    """Executes one phase profile until a cycle limit is reached."""

    def __init__(
        self,
        profile: PhaseProfile,
        space: AddressSpace,
        memory: MemorySystem,
        translation: TranslationUnit,
        branches: BranchUnit,
        accountant: PipelineAccountant,
        counters: CounterBank,
        rng: random.Random,
    ):
        self.profile = profile
        self.memory = memory
        self.translation = translation
        self.branches = branches
        self.acct = accountant
        self.bank = counters
        self.rng = rng

        self._code_region = space[profile.code_region]
        self._load_regions, self._load_cum = _weighted_cum(
            [(space[name], w) for name, w in profile.load_mix]
        )
        self._store_regions, self._store_cum = _weighted_cum(
            [(space[name], w) for name, w in profile.store_mix]
        )

        active = profile.code_pool.sample_active(rng, profile.active_units)
        if not active:
            raise ValueError("phase has no active code units")
        self._active: List[CodeUnit] = active
        self._active_cum: List[float] = []
        acc = 0.0
        for unit in active:
            acc += unit.weight
            self._active_cum.append(acc)

        self._unit: CodeUnit = self._pick_unit()
        self._pos: int = self._unit.base
        self._fetched_line: int = -1

        # Per-region locality state.
        self._granule: Dict[str, int] = {}
        self._seq_ptr: Dict[str, int] = {}
        self._dwell_p = 1.0 - 1.0 / max(1.0, profile.page_dwell)
        self._dwell_override = profile.dwell_span_override

    def _pick_unit(self) -> CodeUnit:
        x = self.rng.random() * self._active_cum[-1]
        lo, hi = 0, len(self._active) - 1
        # Inline bisect (hot path).
        while lo < hi:
            mid = (lo + hi) // 2
            if self._active_cum[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        return self._active[lo]

    def _switch_unit(self) -> None:
        self._unit = self._pick_unit()
        self._pos = self._unit.base
        self._fetched_line = -1

    # ------------------------------------------------------------------
    # Generic (un-fused) block pipeline
    # ------------------------------------------------------------------
    # These methods are the readable specification of what one block
    # does, and the execution path whenever the C kernel does not run:
    # another engine, no build, a declined slice, or a subclassed or
    # instance-patched collaborator (tests spy on ``memory.load``, for
    # example).  The C kernel draws the RNG in the same sequence and
    # adds the same floats in the same order, so both paths produce
    # bit-identical windows.

    def _fetch_block(self, n_instr: int) -> None:
        """Fetch the I-lines spanned by the next ``n_instr`` instructions."""
        line_bytes = self.memory.machine.l1i.line_bytes
        start = self._pos
        end = self._pos + n_instr * INSTR_BYTES
        line = start // line_bytes
        last_line = (end - 1) // line_bytes
        while line <= last_line:
            if line != self._fetched_line:
                addr = line * line_bytes
                result = self.translation.translate_inst(addr, self._code_region)
                if result.erat_miss:
                    self.bank.add(Event.PM_IERAT_MISS)
                    if result.tlb_miss:
                        self.bank.add(Event.PM_ITLB_MISS)
                self.acct.charge_inst_translation(result)
                source = self.memory.fetch(addr, self._code_region)
                self.acct.charge_fetch(source)
                self._fetched_line = line
            line += 1
        self._pos = end

    def _data_address(self, region: Region, seq_fraction: float, step: int) -> int:
        """Pick an address: scan, dwell, or fresh draw (in that order).

        Scans advance a per-region sequential pointer (table scans,
        copies, the allocation frontier) and are what feed the stream
        prefetcher.  Non-scan accesses mostly dwell inside the region's
        current locality neighborhood; a fresh neighborhood is drawn
        every ``page_dwell`` accesses on average.
        """
        rng = self.rng
        name = region.name
        if rng.random() < seq_fraction * region.scan_affinity:
            ptr = self._seq_ptr.get(name)
            # Scans run in chunks: a real scan is interrupted (next
            # row batch, next object) every ~SCAN_CHUNK accesses and
            # resumes elsewhere, so every burst pays its own stream
            # allocation and leading misses.
            if ptr is None or rng.random() < _INV_SCAN_CHUNK:
                ptr = region.base + rng.randrange(region.n_pages) * region.page_bytes
            addr = ptr
            ptr += step
            if ptr >= region.end:
                ptr = region.base
            self._seq_ptr[name] = ptr
            return addr
        span = region.dwell_span
        if self._dwell_override:
            # A phase override widens bulk regions' locality (GC walks
            # objects, not pages) but never spreads tight regions.
            span = min(self._dwell_override, span) if span > 512 else span
        if rng.random() < self._dwell_p:
            granule = self._granule.get(name)
            if granule is not None:
                return granule + rng.randrange(min(span, region.end - granule))
        addr = region.random_address(rng)
        self._granule[name] = max(region.base, (addr // span) * span)
        return addr

    def _memory_op(self) -> None:
        rng = self.rng
        profile = self.profile
        is_load = rng.random() < profile.load_fraction
        if is_load:
            regions, cum = self._load_regions, self._load_cum
            seq_fraction, step = profile.seq_load_fraction, SEQ_LOAD_STEP
        else:
            regions, cum = self._store_regions, self._store_cum
            seq_fraction, step = profile.seq_store_fraction, SEQ_STORE_STEP

        x = rng.random() * cum[-1]
        lo, hi = 0, len(regions) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cum[mid] <= x:
                lo = mid + 1
            else:
                hi = mid
        region = regions[lo]

        addr = self._data_address(region, seq_fraction, step)
        # Object-centric attribution (repro.obs.objprof) mirrors the
        # miss classification below: pure side counters, no RNG draws,
        # no float accumulation — bit-identical either way.
        prof = _objprof._ACTIVE
        result = self.translation.translate_data(addr, region)
        if result.erat_miss:
            self.bank.add(Event.PM_DERAT_MISS)
            if prof is not None:
                prof.charge(region, addr, _objprof.SLOT_DERAT_MISS)
            if result.tlb_miss:
                self.bank.add(Event.PM_DTLB_MISS)
                if prof is not None:
                    prof.charge(region, addr, _objprof.SLOT_DTLB_MISS)
        self.acct.charge_data_translation(result)

        if is_load:
            source, outcome = self.memory.load(addr, region)
            self.acct.charge_load(source, outcome.covered)
            if outcome.allocated:
                self.acct.charge_stream_alloc()
            if prof is not None:
                if outcome.covered:
                    prof.charge(region, addr, _objprof.SLOT_COVERED)
                elif source is not None:
                    prof.charge(region, addr, _objprof.SLOT_LD_MISS)
                    prof.charge(region, addr, _objprof.SLOT_OF_SOURCE[source])
        else:
            hit = self.memory.store(addr, region)
            self.acct.charge_store(hit)
            if prof is not None and not hit:
                prof.charge(region, addr, _objprof.SLOT_ST_MISS)

    def _stochastic_count(self, expectation: float) -> int:
        n = int(expectation)
        if self.rng.random() < expectation - n:
            n += 1
        return n

    def _end_of_block_branch(self, block_len: int) -> None:
        rng = self.rng
        profile = self.profile
        unit = self._unit
        self.bank.add(Event.PM_BR_CMPL)

        if profile.hard_branch_fraction and rng.random() < profile.hard_branch_fraction:
            # A data-dependent branch: effectively unpredictable.
            sid = unit.cond_sites[0][0] ^ 0x5A5A5A5A
            taken = rng.random() < 0.5
            if self.branches.conditional(sid, taken):
                self.bank.add(Event.PM_BR_MPRED_CR)
                self.acct.charge_conditional_mispredict()
            if taken:
                self._pos += INSTR_BYTES * rng.randint(2, 20)
                self._fetched_line = -1
            # Fall through to the common control-transfer tail so that
            # hard-branch density does not perturb code-footprint churn.
            if rng.random() < profile.call_fraction or self._pos >= unit.end:
                self._switch_unit()
            return

        if unit.ind_sites and rng.random() < profile.indirect_fraction:
            site = unit.ind_sites[rng.randrange(len(unit.ind_sites))]
            target = site.pick_target(rng)
            self.bank.add(Event.PM_BR_INDIRECT)
            if self.branches.indirect(site.sid, target):
                self.bank.add(Event.PM_BR_MPRED_TA)
                self.acct.charge_target_mispredict()
            # Virtual dispatch usually transfers to another method.
            if rng.random() < 0.6:
                self._switch_unit()
            return

        sid, bias = unit.cond_sites[rng.randrange(len(unit.cond_sites))]
        taken = rng.random() < bias
        if self.branches.conditional(sid, taken):
            self.bank.add(Event.PM_BR_MPRED_CR)
            self.acct.charge_conditional_mispredict()
        if taken:
            if rng.random() < 0.85:
                # Loop back a few block lengths.
                back = block_len * INSTR_BYTES * rng.randint(1, 3)
                self._pos = max(unit.base, self._pos - back)
            else:
                self._pos += INSTR_BYTES * rng.randint(4, 40)
            self._fetched_line = -1
        if rng.random() < profile.call_fraction:
            self._switch_unit()
        elif self._pos >= unit.end:
            self._switch_unit()

    def _run_generic(self, cycle_limit: float) -> None:
        """The un-fused main loop (see the note above _fetch_block)."""
        rng = self.rng
        profile = self.profile
        mean_extra = profile.block_mean - 1.0
        while self.acct.cycles < cycle_limit:
            if mean_extra > 0.0:
                k = 1 + min(int(rng.expovariate(1.0 / mean_extra)), 64)
            else:
                k = 1
            self._fetch_block(k)
            self.acct.add_instructions(k)

            n_mem = self._stochastic_count(k * profile.mem_per_instr)
            for _ in range(n_mem):
                self._memory_op()

            n_larx = self._stochastic_count(k * profile.larx_per_instr)
            for _ in range(n_larx):
                self.bank.add(Event.PM_LARX)
                self.bank.add(Event.PM_STCX)
                if rng.random() < STCX_FAIL_P:
                    self.bank.add(Event.PM_STCX_FAIL)
                    self.acct.charge_stcx_fail()

            n_sync = self._stochastic_count(k * profile.sync_per_instr)
            for _ in range(n_sync):
                self.bank.add(Event.PM_SYNC_CNT)
                self.acct.charge_sync()

            self._end_of_block_branch(k)

    def _can_fuse(self) -> bool:
        """True when every collaborating structure is the stock class.

        The fused C kernel reaches past the public methods into the way
        lists, counter slots and predictor tables, so it is only valid
        when nothing has been subclassed or instance-patched; any
        override falls back to :meth:`_run_generic`, which produces
        bit-identical results through the public interfaces.
        """
        memory = self.memory
        translation = self.translation
        branches = self.branches
        return (
            type(memory) is MemorySystem
            and type(translation) is TranslationUnit
            and type(branches) is BranchUnit
            and type(self.acct) is PipelineAccountant
            and type(self.bank) is CounterBank
            and type(memory.l1i) is SetAssociativeCache
            and type(memory.l1d) is SetAssociativeCache
            and type(memory.prefetcher) is StreamPrefetcher
            and not _PATCHED_MEMORY_METHODS & memory.__dict__.keys()
            and not _PATCHED_TRANSLATION_METHODS & translation.__dict__.keys()
            and not _PATCHED_BRANCH_METHODS & branches.__dict__.keys()
            and not _PATCHED_ACCT_METHODS & self.acct.__dict__.keys()
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run_until(self, cycle_limit: float) -> None:
        """Generate blocks until the accountant reaches ``cycle_limit``.

        When an observability session is active the invocation is
        wrapped in a wall-clock span and cycle/instruction counters;
        the kernel itself is untouched either way (instrumentation
        reads the accountant before and after, nothing more).
        """
        obs = _obs._ACTIVE
        if obs is None:
            self._run_until_impl(cycle_limit)
            return
        t0 = time.perf_counter()
        cycles_before = self.acct.cycles
        instr_before = self.acct.completed
        try:
            self._run_until_impl(cycle_limit)
        finally:
            obs.metrics.counter("cpu.slices").inc()
            obs.metrics.counter("cpu.cycles").inc(self.acct.cycles - cycles_before)
            obs.metrics.counter("cpu.instructions").inc(
                self.acct.completed - instr_before
            )
            obs.tracer.record(
                "slice",
                "cpu",
                start_s=t0,
                duration_s=time.perf_counter() - t0,
                clock=WALL,
                labels={"profile": self.profile.name},
            )

    def _run_until_impl(self, cycle_limit: float) -> None:
        """The real main loop behind :meth:`run_until`.

        Runs the slice in C (engine ``native``) when the kernel is
        loaded and accepts it; otherwise takes the core's state back
        from C and runs :meth:`_run_generic`.  Both draw every RNG word
        and add every float into ``cycles`` in the same order, with the
        same values, as the pinned reference implementation.
        """
        if default_engine() == "native" and _native.load() is None:
            if not self._can_fuse():
                _native.DECLINED["a collaborator is subclassed or patched"] += 1
            elif _native.run(self, cycle_limit):
                return
        _native.release(self.memory)
        self._run_generic(cycle_limit)
