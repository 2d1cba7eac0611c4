"""Pinned pre-optimization kernels: the reference core model.

This module preserves, verbatim, the original (seed) implementations of
the structures that were rewritten as flat-array kernels in
:mod:`repro.cpu.cache`, :mod:`repro.cpu.translation`,
:mod:`repro.cpu.prefetch`, :mod:`repro.cpu.hierarchy` and
:mod:`repro.hpm.counters`:

* per-set ``OrderedDict`` caches instead of preallocated way lists;
* enum-dict counter banks instead of slot-indexed flat lists;
* freshly allocated translation/prefetch outcome objects instead of
  interned singletons;
* the un-fused per-access call chain instead of the inlined C kernel
  behind ``SliceRunner.run_until``.

It exists for two reasons.  First, **equivalence**: the optimized
kernels are required to be bit-identical to these — same RNG draw
sequence, same float-addition order, same counter values — and the
property/regression tests under ``tests/cpu`` assert exactly that by
running both side by side.  Second, **benchmarking**:
``benchmarks/test_core_kernels.py`` measures the optimized window
kernel against :class:`ReferenceCoreModel` to produce the recorded
speedup in ``BENCH_core_model.json``.

Nothing here is exported for production use; the only supported entry
points are the ``Reference*`` classes themselves.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig, PrefetcherConfig, TranslationConfig
from repro.cpu.core_model import CoreModel
from repro.cpu.regions import Region
from repro.cpu.sources import DataSource, InstSource
from repro.cpu.stream import SliceRunner
from repro.cpu.translation import TranslationResult
from repro.hpm.counters import CounterSnapshot
from repro.hpm.events import Event


class ReferenceSetAssociativeCache:
    """The original ``OrderedDict``-per-set cache implementation."""

    def __init__(self, n_sets: int, associativity: int, policy: str = "lru"):
        if n_sets <= 0 or associativity <= 0:
            raise ValueError("cache dimensions must be positive")
        if policy not in ("lru", "fifo"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.n_sets = n_sets
        self.associativity = associativity
        self.policy = policy
        # One OrderedDict per set: key -> None, insertion order is the
        # replacement order (for LRU we refresh on hit, for FIFO we
        # do not).
        self._sets: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(n_sets)
        ]
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_geometry(cls, geometry) -> "ReferenceSetAssociativeCache":
        return cls(geometry.n_sets, geometry.associativity, geometry.policy)

    def _set_for(self, block: int) -> "OrderedDict[int, None]":
        return self._sets[block % self.n_sets]

    def lookup(self, block: int) -> bool:
        ways = self._set_for(block)
        if block in ways:
            self.hits += 1
            if self.policy == "lru":
                ways.move_to_end(block)
            return True
        self.misses += 1
        return False

    def fill(self, block: int) -> Optional[int]:
        ways = self._set_for(block)
        if block in ways:
            if self.policy == "lru":
                ways.move_to_end(block)
            return None
        victim = None
        if len(ways) >= self.associativity:
            victim, _ = ways.popitem(last=False)
        ways[block] = None
        return victim

    def contains(self, block: int) -> bool:
        return block in self._set_for(block)

    def invalidate(self, block: int) -> bool:
        ways = self._set_for(block)
        if block in ways:
            del ways[block]
            return True
        return False

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def occupancy(self) -> int:
        return sum(len(ways) for ways in self._sets)

    @property
    def capacity(self) -> int:
        return self.n_sets * self.associativity

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ReferenceCounterBank:
    """The original enum-dict counter bank."""

    def __init__(self) -> None:
        self._counts: Dict[Event, int] = {event: 0 for event in Event}

    def add(self, event: Event, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"negative increment for {event}: {n}")
        self._counts[event] += n

    def value(self, event: Event) -> int:
        return self._counts[event]

    def reset(self) -> None:
        for event in self._counts:
            self._counts[event] = 0

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(counts=dict(self._counts))


@dataclass
class ReferencePrefetchOutcome:
    """The original mutable per-access prefetch outcome."""

    covered: bool = False
    allocated: bool = False
    l1_prefetches: int = 0
    l2_prefetches: int = 0


class ReferenceStreamPrefetcher:
    """The original OrderedDict-based sequential stream prefetcher."""

    def __init__(self, config: PrefetcherConfig):
        self.config = config
        self._streams: "OrderedDict[int, None]" = OrderedDict()
        self._runs: "OrderedDict[int, int]" = OrderedDict()
        self._runs_capacity = 24

    def cover(self, line: int) -> ReferencePrefetchOutcome:
        if line in self._streams:
            del self._streams[line]
            self._streams[line + 1] = None  # advance, refresh LRU
            return ReferencePrefetchOutcome(
                covered=True, l1_prefetches=1, l2_prefetches=1
            )
        return ReferencePrefetchOutcome()

    def on_miss(self, line: int) -> ReferencePrefetchOutcome:
        outcome = ReferencePrefetchOutcome()
        run = self._runs.pop(line - 1, 0) + 1
        if run > self.config.allocate_after:
            if (line + 1) not in self._streams:
                while len(self._streams) >= self.config.n_streams:
                    self._streams.popitem(last=False)
                self._streams[line + 1] = None
                outcome.allocated = True
                outcome.l2_prefetches = self.config.depth
        else:
            self._runs[line] = run
            while len(self._runs) > self._runs_capacity:
                self._runs.popitem(last=False)
        return outcome

    @property
    def active_streams(self) -> int:
        return len(self._streams)

    def reset(self) -> None:
        self._streams.clear()
        self._runs.clear()


class _ReferenceErat:
    """The original ERAT: lookup + separate fill on miss."""

    def __init__(self, entries: int, associativity: int, granule_bytes: int):
        if entries % associativity != 0:
            raise ValueError("ERAT entries must divide evenly into ways")
        self.granule_bytes = granule_bytes
        self.cache = ReferenceSetAssociativeCache(
            entries // associativity, associativity, "lru"
        )

    def access(self, addr: int) -> bool:
        granule = addr // self.granule_bytes
        if self.cache.lookup(granule):
            return True
        self.cache.fill(granule)
        return False


class _ReferenceUnifiedTlb:
    """The original unified TLB."""

    def __init__(self, entries: int, associativity: int):
        if entries % associativity != 0:
            raise ValueError("TLB entries must divide evenly into ways")
        self.cache = ReferenceSetAssociativeCache(
            entries // associativity, associativity, "lru"
        )
        self.data_hits = 0
        self.data_misses = 0
        self.inst_hits = 0
        self.inst_misses = 0

    @staticmethod
    def _key(addr: int, page_bytes: int) -> int:
        return (addr // page_bytes) * 2 + (1 if page_bytes > 4096 else 0)

    def access(self, addr: int, page_bytes: int, is_data: bool) -> bool:
        key = self._key(addr, page_bytes)
        hit = self.cache.lookup(key)
        if not hit:
            self.cache.fill(key)
        if is_data:
            if hit:
                self.data_hits += 1
            else:
                self.data_misses += 1
        else:
            if hit:
                self.inst_hits += 1
            else:
                self.inst_misses += 1
        return hit

    def data_hit_rate(self) -> float:
        total = self.data_hits + self.data_misses
        return self.data_hits / total if total else 0.0

    def inst_hit_rate(self) -> float:
        total = self.inst_hits + self.inst_misses
        return self.inst_hits / total if total else 0.0


class ReferenceTranslationUnit:
    """The original translation unit: a fresh result object per access."""

    def __init__(self, config: TranslationConfig):
        self.config = config
        self.ierat = _ReferenceErat(
            config.ierat_entries, config.erat_associativity, config.erat_page_bytes
        )
        self.derat = _ReferenceErat(
            config.derat_entries, config.erat_associativity, config.erat_page_bytes
        )
        self.tlb = _ReferenceUnifiedTlb(config.tlb_entries, config.tlb_associativity)

    def translate_data(self, addr: int, region: Region) -> TranslationResult:
        if self.derat.access(addr):
            return TranslationResult(erat_miss=False, tlb_miss=False)
        tlb_hit = self.tlb.access(addr, region.page_bytes, is_data=True)
        return TranslationResult(erat_miss=True, tlb_miss=not tlb_hit)

    def translate_inst(self, addr: int, region: Region) -> TranslationResult:
        if self.ierat.access(addr):
            return TranslationResult(erat_miss=False, tlb_miss=False)
        tlb_hit = self.tlb.access(addr, region.page_bytes, is_data=False)
        return TranslationResult(erat_miss=True, tlb_miss=not tlb_hit)

    @property
    def dtlb_hit_rate(self) -> float:
        return self.tlb.data_hit_rate()

    @property
    def itlb_hit_rate(self) -> float:
        return self.tlb.inst_hit_rate()


class ReferenceMemorySystem:
    """The original memory system: enum-keyed counter adds per access."""

    def __init__(self, machine: MachineConfig, counters, rng: random.Random):
        self.machine = machine
        self.counters = counters
        self.rng = rng
        self.l1i = ReferenceSetAssociativeCache.from_geometry(machine.l1i)
        self.l1d = ReferenceSetAssociativeCache.from_geometry(machine.l1d)
        self.prefetcher = ReferenceStreamPrefetcher(machine.prefetcher)
        self._dline = machine.l1d.line_bytes
        self._iline = machine.l1i.line_bytes
        self._store_gather: "OrderedDict[int, None]" = OrderedDict()

    def load(
        self, addr: int, region: Region
    ) -> Tuple[Optional[DataSource], ReferencePrefetchOutcome]:
        c = self.counters
        c.add(Event.PM_LD_REF_L1)
        line = addr // self._dline

        covered = self.prefetcher.cover(line)
        if covered.covered:
            self.l1d.fill(line)
            c.add(Event.PM_L1_PREF, covered.l1_prefetches)
            c.add(Event.PM_L2_PREF, covered.l2_prefetches)
            return None, covered

        if self.l1d.lookup(line):
            return None, covered

        c.add(Event.PM_LD_MISS_L1)
        outcome = self.prefetcher.on_miss(line)
        if outcome.allocated:
            c.add(Event.PM_STREAM_ALLOC)
            c.add(Event.PM_L2_PREF, outcome.l2_prefetches)
        source = region.pick_source(self.rng)
        c.add(source.event)
        self.l1d.fill(line)
        return source, outcome

    def store(self, addr: int, region: Region) -> bool:
        c = self.counters
        c.add(Event.PM_ST_REF_L1)
        line = addr // self._dline
        gather = self._store_gather
        if line in gather:
            gather.move_to_end(line)
            return True
        gather[line] = None
        if len(gather) > 8:
            gather.popitem(last=False)
        if self.l1d.lookup(line):
            return True
        c.add(Event.PM_ST_MISS_L1)
        return False

    def fetch(self, addr: int, region: Region) -> InstSource:
        c = self.counters
        line = addr // self._iline
        if self.l1i.lookup(line):
            c.add(Event.PM_INST_FROM_L1)
            return InstSource.L1
        source = region.pick_inst_source(self.rng)
        c.add(source.event)
        self.l1i.fill(line)
        return source

    def reset_structures(self) -> None:
        self.l1i.flush()
        self.l1d.flush()
        self.prefetcher.reset()


class ReferenceSliceRunner(SliceRunner):
    """A SliceRunner pinned to the original un-fused block pipeline.

    ``SliceRunner._run_generic`` *is* the original implementation kept
    verbatim as the fallback path; disabling fusion makes every window
    run through it, calling the reference structures' public methods
    access for access exactly as the seed code did.
    """

    def _can_fuse(self) -> bool:
        return False


class ReferenceCoreModel(CoreModel):
    """A CoreModel wired entirely from the pinned reference kernels.

    Drives the same window execution protocol as :class:`CoreModel`
    with every collaborating structure swapped for its pre-optimization
    implementation.  Given the same configuration and RNG factory seed,
    its snapshots must be identical to the optimized model's — that
    assertion is the strongest end-to-end equivalence test we have, and
    the performance gap between the two is the number reported in
    ``BENCH_core_model.json``.
    """

    counter_bank_cls = ReferenceCounterBank
    memory_system_cls = ReferenceMemorySystem
    translation_unit_cls = ReferenceTranslationUnit
    slice_runner_cls = ReferenceSliceRunner
