"""The memory system of one core: L1s, prefetcher, and beyond-L1 sourcing.

The L1 instruction and data caches are simulated structurally (32 KB,
2-way, FIFO, 128-byte lines on POWER4).  The L1D is write-through and
*non-allocating* for stores: a store miss sends the data to the L2 but
does not evict an L1 line — the paper notes this "prevents stores from
evicting useful data from the L1 DCache".

Accesses that miss the L1 are classified by the owning region's backing
distribution (see :mod:`repro.cpu.regions` for why), with one dynamic
exception: lines covered by an active prefetch stream behave like L1
hits and are counted as prefetches.

All HPM events are counted here, directly into the shared
:class:`~repro.hpm.counters.CounterBank` — by precomputed slot index
(see :data:`repro.hpm.events.EVENT_INDEX`), not per-event enum-dict
increments.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.config import MachineConfig
from repro.cpu import native
from repro.cpu.cache import SetAssociativeCache
from repro.cpu.prefetch import PrefetchOutcome, StreamPrefetcher
from repro.cpu.regions import Region
from repro.cpu.sources import DataSource, InstSource
from repro.hpm.counters import CounterBank
from repro.hpm.events import EVENT_INDEX, Event

# Counter slot indices for the events this module counts.
_LD_REF = EVENT_INDEX[Event.PM_LD_REF_L1]
_LD_MISS = EVENT_INDEX[Event.PM_LD_MISS_L1]
_ST_REF = EVENT_INDEX[Event.PM_ST_REF_L1]
_ST_MISS = EVENT_INDEX[Event.PM_ST_MISS_L1]
_L1_PREF = EVENT_INDEX[Event.PM_L1_PREF]
_L2_PREF = EVENT_INDEX[Event.PM_L2_PREF]
_STREAM_ALLOC = EVENT_INDEX[Event.PM_STREAM_ALLOC]
_INST_FROM_L1 = EVENT_INDEX[Event.PM_INST_FROM_L1]
# Source enum -> counter slot, precomputed (DataSource.event is a
# property behind a dict; two lookups folded into one here).
_DATA_SLOT = {src: EVENT_INDEX[src.event] for src in DataSource}
_INST_SLOT = {src: EVENT_INDEX[src.event] for src in InstSource}


class MemorySystem:
    """L1I + L1D + stream prefetcher + beyond-L1 classifier."""

    def __init__(self, machine: MachineConfig, counters: CounterBank, rng: random.Random):
        self.machine = machine
        self.counters = counters
        self.rng = rng
        self.l1i = SetAssociativeCache.from_geometry(machine.l1i)
        self.l1d = SetAssociativeCache.from_geometry(machine.l1d)
        self.prefetcher = StreamPrefetcher(machine.prefetcher)
        self._dline = machine.l1d.line_bytes
        self._iline = machine.l1i.line_bytes
        # Store-gather buffer: the SRQ merges stores that hit a line
        # with a pending store transaction (insertion-ordered dict =
        # LRU of 8; the first key is the eviction victim).
        self._store_gather = {}

    # ------------------------------------------------------------------
    # Data side
    # ------------------------------------------------------------------
    def load(self, addr: int, region: Region) -> Tuple[Optional[DataSource], PrefetchOutcome]:
        """Execute one load.

        Returns ``(source, prefetch_outcome)`` where ``source`` is None
        for an L1D hit (including prefetch-covered accesses) and the
        :class:`DataSource` the line came from otherwise.
        """
        data = self.counters.data
        data[_LD_REF] += 1
        line = addr // self._dline

        covered = self.prefetcher.cover(line)
        if covered.covered:
            self.l1d.fill(line)
            data[_L1_PREF] += covered.l1_prefetches
            data[_L2_PREF] += covered.l2_prefetches
            return None, covered

        if self.l1d.lookup(line):
            return None, covered

        data[_LD_MISS] += 1
        outcome = self.prefetcher.on_miss(line)
        if outcome.allocated:
            data[_STREAM_ALLOC] += 1
            data[_L2_PREF] += outcome.l2_prefetches
        source = region.pick_source(self.rng)
        data[_DATA_SLOT[source]] += 1
        self.l1d.fill(line)
        return source, outcome

    def store(self, addr: int, region: Region) -> bool:
        """Execute one store; returns True if it hit the L1D.

        Write-through: the L2 is updated either way.  Non-allocating:
        a miss does not install the line in L1.
        """
        data = self.counters.data
        data[_ST_REF] += 1
        line = addr // self._dline
        gather = self._store_gather
        if line in gather:
            # Gathered with a pending store to the same line: refresh.
            del gather[line]
            gather[line] = None
            return True
        gather[line] = None
        if len(gather) > 8:
            del gather[next(iter(gather))]
        if self.l1d.lookup(line):
            return True
        data[_ST_MISS] += 1
        return False

    # ------------------------------------------------------------------
    # Instruction side
    # ------------------------------------------------------------------
    def fetch(self, addr: int, region: Region) -> InstSource:
        """Fetch one instruction cache line; returns where it came from."""
        data = self.counters.data
        line = addr // self._iline
        if self.l1i.lookup(line):
            data[_INST_FROM_L1] += 1
            return InstSource.L1
        source = region.pick_inst_source(self.rng)
        data[_INST_SLOT[source]] += 1
        self.l1i.fill(line)
        return source

    def reset_structures(self) -> None:
        """Flush all cached state (run boundaries)."""
        native.release(self)  # the compiled kernel may hold the sets
        self.l1i.flush()
        self.l1d.flush()
        self.prefetcher.reset()
