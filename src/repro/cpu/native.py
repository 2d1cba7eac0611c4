"""Engine ``native``: the window kernel compiled to C.

:func:`run` executes one :meth:`SliceRunner.run_until
<repro.cpu.stream.SliceRunner.run_until>` call in ``native.c``, a port
of the generic block pipeline with every step inlined, objprof's site
attribution included.  It draws the same RNG words and adds the same
floats in the same order, so every window is bit-identical to the
generic path and the ``reference`` engine.

Build
-----
The C source is compiled once per host with cffi in API mode and the
system compiler, with ``-O2 -ffp-contract=off`` (no ``-ffast-math``,
which could change a float; no ``-march=native``, which the cache key
does not cover).  The shared object is
cached under ``~/.cache/repro/native/<key>/``, where the key hashes the
C source, the flags, the interpreter ABI and the cffi runtime version.  The build runs under a
file lock when this module is first imported; a warm cache only loads
the shared object, which needs ``_cffi_backend`` but neither ``cffi``
nor ``pycparser``.  When the compiler, cffi or a writable cache is
missing, :data:`REASON` says why and windows run on the generic path.

State across calls
------------------
Copying the caches and predictor tables in and out of C would cost
more than the kernel itself, so per core (keyed by its
:class:`~repro.cpu.hierarchy.MemorySystem`) the C struct *owns* the way
lists of the L1I, L1D, IERAT, DERAT and TLB, both predictor tables and
the ``cpu.backing`` RNG between native calls.  :func:`release` writes
them back to the Python objects; the slice runner calls it before any
window runs on the generic path, so the Python objects are current
whenever Python code uses them.  Hit/miss statistics, counters, the
prefetcher, the store-gather buffer, the locality state, the objprof
site counts and the ``cpu.stream`` RNG (Python draws from it between
slices) cross on every call.

Objprof
-------
When an :class:`~repro.obs.objprof.ObjProfiler` is active, each slice
passes the profiler's extents of its data regions (sorted ends and
the site of each extent) and a zeroed per-site counter table; C
binary-searches the extents at the same six miss events the generic
path charges, and :func:`run` adds the table into the profiler's rows.
These are integer side counters only, so a profiled window stays
bit-identical to an unprofiled one.
"""

from __future__ import annotations

import collections
import hashlib
import importlib.util
import os
import sys
import sysconfig
import tempfile
import weakref
from array import array
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cpu.engine import ENGINE_ENV
from repro.cpu.sources import DataSource, InstSource
from repro.hpm.events import EVENT_INDEX, Event
from repro.obs import objprof as _objprof

#: Compiler flags beyond the interpreter's own (they come last, so
#: ``-O2`` wins over its ``-O3``).
CFLAGS = ("-O2", "-ffp-contract=off")

_HERE = Path(__file__).resolve().parent

#: The loaded cffi library, or None when the engine is unavailable.
LIB = None
FFI = None
#: Why :data:`LIB` is None (None once loaded).
_NOT_LOADED = "not loaded yet"
REASON: Optional[str] = _NOT_LOADED
#: Reasons a slice declined the native kernel, with counts (this
#: process only); such slices ran on the generic path.
DECLINED: "collections.Counter[str]" = collections.Counter()

# Kernel counter ordinals (native.c's K_* enum) -> CounterBank slots.
_K_SLOTS = tuple(
    EVENT_INDEX[e]
    for e in (
        Event.PM_IERAT_MISS, Event.PM_ITLB_MISS, Event.PM_DERAT_MISS,
        Event.PM_DTLB_MISS, Event.PM_LD_REF_L1, Event.PM_LD_MISS_L1,
        Event.PM_ST_REF_L1, Event.PM_ST_MISS_L1, Event.PM_L1_PREF,
        Event.PM_L2_PREF, Event.PM_STREAM_ALLOC, Event.PM_LARX, Event.PM_STCX,
        Event.PM_STCX_FAIL, Event.PM_SYNC_CNT, Event.PM_BR_CMPL,
        Event.PM_BR_MPRED_CR, Event.PM_BR_INDIRECT, Event.PM_BR_MPRED_TA,
    )
) + tuple(EVENT_INDEX[s.event] for s in InstSource) + tuple(
    EVENT_INDEX[s.event] for s in DataSource
)
_N_COUNTS = len(_K_SLOTS)
# Objprof ordinals (native.c's P_* enum) -> ObjProfiler row slots.
_P_SLOTS = (
    _objprof.SLOT_LD_MISS, _objprof.SLOT_ST_MISS, _objprof.SLOT_DERAT_MISS,
    _objprof.SLOT_DTLB_MISS, _objprof.SLOT_COVERED,
) + tuple(_objprof.SLOT_OF_SOURCE[s] for s in DataSource)
_N_PROF = len(_P_SLOTS)
_DATA_ORD = {s: i for i, s in enumerate(DataSource)}
_INST_ORD = {s: i for i, s in enumerate(InstSource)}
# Largest draw bound the C getrandbits handles (one 32-bit word).
_MAX_BOUND = 1 << 32
# Bound on branch-site and target ids (int64 in C).
_MAX_ID = 1 << 62


# ----------------------------------------------------------------------
# Build and load
# ----------------------------------------------------------------------
def cache_root() -> Path:
    """Per-host build cache (one subdirectory per source/flags/ABI key)."""
    return Path.home() / ".cache" / "repro" / "native"


def _sources() -> Tuple[str, str]:
    return (_HERE / "native.h").read_text(), (_HERE / "native.c").read_text()


def build_key(header: str, source: str) -> str:
    """Hash of everything the shared object depends on."""
    try:
        import _cffi_backend  # the runtime the module is built against

        backend = _cffi_backend.__version__
    except ImportError:
        backend = "none"
    abi = (sys.implementation.cache_tag, sysconfig.get_config_var("EXT_SUFFIX"), backend)
    blob = "\0".join((header, source, " ".join(CFLAGS), *map(str, abi)))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _build(header: str, source: str, modname: str, target: Path) -> None:
    import cffi  # only on a cold cache

    ffi = cffi.FFI()
    ffi.cdef(header)
    ffi.set_source(
        modname,
        "#include <stdint.h>\n" + header + source,
        extra_compile_args=list(CFLAGS),
        libraries=["m"],
    )
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        built = ffi.compile(tmpdir=tmp, verbose=False)
        os.replace(built, target)


def _ensure_built() -> Tuple[str, Path]:
    """The module name and shared object, building it if need be.

    A failed build is recorded next to it and not retried, so a host
    without a compiler pays for the attempt once, not on every import;
    delete the key's directory to try again.
    """
    import fcntl  # POSIX; elsewhere windows fall back to the generic path

    header, source = _sources()
    key = build_key(header, source)
    modname = f"_repro_native_{key}"
    target = cache_root() / key / (modname + sysconfig.get_config_var("EXT_SUFFIX"))
    failed = target.parent / "build.failed"
    if not target.exists():
        if failed.exists():
            raise RuntimeError(f"earlier build failed: {failed.read_text()}")
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target.parent / "build.lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if failed.exists():
                raise RuntimeError(f"earlier build failed: {failed.read_text()}")
            if not target.exists():
                try:
                    _build(header, source, modname, target)
                except Exception as exc:
                    failed.write_text(f"{type(exc).__name__}: {exc}")
                    raise
    return modname, target


def load() -> Optional[str]:
    """Build if needed and load the kernel; returns why not, or None.

    Tried once per process; later calls return the first outcome.
    """
    global LIB, FFI, REASON
    if LIB is not None or REASON != _NOT_LOADED:
        return REASON
    try:
        modname, path = _ensure_built()
        spec = importlib.util.spec_from_file_location(modname, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception as exc:  # no cffi, no compiler, unwritable cache...
        REASON = f"native build unavailable: {type(exc).__name__}: {exc}".strip()
        return REASON
    LIB, FFI, REASON = module.lib, module.ffi, None
    return None


# ----------------------------------------------------------------------
# Per-core state: owned by C between calls
# ----------------------------------------------------------------------
def _bound(memory, translation, branches) -> tuple:
    """The Python objects whose contents the C struct owns."""
    return (
        memory.l1i, memory.l1d, translation.ierat.cache, translation.derat.cache,
        translation.tlb.cache, branches.direction._table, branches.target._table,
        memory.rng,
    )


class _Core:
    """The C ``core_t`` of one core plus the buffers it points into."""

    def __init__(self, objs, memory, translation):
        ffi = FFI
        self.objs = objs
        self.ids = tuple(map(id, objs))
        self.keep = []
        c = self.c = ffi.new("core_t *")
        for field, cache in zip(("l1i", "l1d", "ierat", "derat", "tlb"), self.objs):
            cc = getattr(c, field)
            assoc = cache.associativity
            ways = ffi.new("int64_t[]", cache.n_sets * assoc)
            lens = ffi.new("int32_t[]", [len(w) for w in cache.sets])
            for s, w in enumerate(cache.sets):
                ways[s * assoc:s * assoc + len(w)] = w
            self.keep += (ways, lens)
            cc.ways, cc.len = ways, lens
            cc.n_sets, cc.assoc, cc.lru = cache.n_sets, assoc, cache.lru
        dir_table, tgt_table, backing = self.objs[5:]
        dirs, tgts = ffi.new("int8_t[]", dir_table), ffi.new("int64_t[]", tgt_table)
        self.keep += (dirs, tgts)
        c.dir, c.tgt = dirs, tgts
        c.dir_entries, c.tgt_entries = len(dir_table), len(tgt_table)
        state = backing.getstate()
        set_mt(ffi.addressof(c, "backing"), state)
        self.backing_state = (state[0], None, state[2])  # the words live in C
        c.iline = memory.machine.l1i.line_bytes
        c.dline = memory.machine.l1d.line_bytes
        c.ierat_granule = translation.ierat.granule_bytes
        c.derat_granule = translation.derat.granule_bytes
        pf = memory.prefetcher
        c.max_streams, c.max_runs = pf.config.n_streams, pf._runs_capacity
        c.allocate_after, c.depth = pf.config.allocate_after, pf.alloc_outcome.l2_prefetches

    def write_back(self) -> None:
        ffi, c = FFI, self.c
        for field, cache in zip(("l1i", "l1d", "ierat", "derat", "tlb"), self.objs):
            cc = getattr(c, field)
            for s, w in enumerate(cache.sets):
                w[:] = ffi.unpack(cc.ways + s * cc.assoc, cc.len[s])
        dir_table, tgt_table, backing = self.objs[5:]
        dir_table[:] = ffi.unpack(c.dir, len(dir_table))
        tgt_table[:] = ffi.unpack(c.tgt, len(tgt_table))
        backing.setstate(get_mt(ffi.addressof(c, "backing"), self.backing_state))


def set_mt(mt, state: tuple) -> None:
    """Load ``random.Random.getstate()`` into an ``mt_t``."""
    FFI.memmove(mt, array("I", state[1]), 2500)


def get_mt(mt, state: tuple) -> tuple:
    """``state`` with its generator words replaced by the ``mt_t``'s."""
    return (state[0], tuple(memoryview(FFI.buffer(mt, 2500)).cast("I")), state[2])


_CORES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def release(memory) -> None:
    """Hand ``memory``'s core state back to its Python objects."""
    core = _CORES.pop(memory, None)
    if core is not None:
        core.write_back()


def _fits(objs, memory, translation) -> bool:
    """True when the fixed-size C buffers hold this core's state."""
    pf = memory.prefetcher
    sizes = (
        memory.machine.l1i.line_bytes, memory.machine.l1d.line_bytes,
        translation.ierat.granule_bytes, translation.derat.granule_bytes,
    )
    return (
        pf.config.n_streams < 16
        and pf._runs_capacity < 31
        and min(sizes) >= 1
        and all(len(w) <= cache.associativity for cache in objs[:5] for w in cache.sets)
        and all(abs(t) < _MAX_ID for t in objs[6])
    )


# ----------------------------------------------------------------------
# Per-pool and per-region packs (built once, reused by every slice)
# ----------------------------------------------------------------------
class _Pool:
    """A CodePool's units, branch sites and targets as C arrays."""

    def __init__(self, pool):
        ffi = FFI
        self.units = list(pool.units)
        self.index = {id(u): i for i, u in enumerate(self.units)}
        # C takes ``sid % entries`` of non-negative ids only, and needs
        # a site to branch on and a target to predict.
        self.ok = all(
            unit.cond_sites
            and all(0 <= sid < _MAX_ID for sid, _ in unit.cond_sites)
            and all(0 <= site.sid < _MAX_ID and site.targets for site in unit.ind_sites)
            and all(abs(t) < _MAX_ID for site in unit.ind_sites for t in site.targets)
            for unit in self.units
        )
        if not self.ok:
            return
        cond_sid, cond_bias, sites, targets, tcum = [], [], [], [], []
        self.c_units = ffi.new("unit_t[]", len(self.units))
        for cu, unit in zip(self.c_units, self.units):
            cu.base, cu.end = unit.base, unit.end
            cu.cond_off, cu.n_cond = len(cond_sid), len(unit.cond_sites)
            cu.ind_off, cu.n_ind = len(sites), len(unit.ind_sites)
            for sid, bias in unit.cond_sites:
                cond_sid.append(sid)
                cond_bias.append(bias)
            for site in unit.ind_sites:
                sites.append((site.sid, len(targets), len(site.targets), len(tcum), len(site.cum_weights)))
                targets += site.targets
                tcum += site.cum_weights
        self.cond_sid = ffi.new("int64_t[]", cond_sid or [0])
        self.cond_bias = ffi.new("double[]", cond_bias or [0.0])
        self.sites = ffi.new("site_t[]", sites or [(0, 0, 0, 0, 0)])
        self.targets = ffi.new("int64_t[]", targets or [0])
        self.tcum = ffi.new("double[]", tcum or [0.0])


_POOLS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_REGIONS: Dict[int, tuple] = {}


def _pool(pool) -> _Pool:
    packed = _POOLS.get(pool)
    if packed is None or len(packed.units) != len(pool.units):
        packed = _POOLS[pool] = _Pool(pool)
    return packed


def _region(region, inst: bool):
    """The ``region_t`` of a region (None when it cannot run in C)."""
    hit = _REGIONS.get(id(region))
    if hit is not None and hit[0] is region:
        return hit[inst + 1]
    if len(_REGIONS) > 4096:
        _REGIONS.clear()
    packs = [region]
    for backing, ords, cap in (
        (region.backing, _DATA_ORD, 8),
        (region.inst_backing, _INST_ORD, 4),
    ):
        if (
            not 0 < len(backing) <= cap
            or region.size_bytes >= _MAX_BOUND
            or region.dwell_span < 1
        ):
            packs.append(None)
            continue
        r = FFI.new("region_t *")
        r.base, r.size, r.end = region.base, region.size_bytes, region.end
        r.page, r.n_pages, r.dwell_span = region.page_bytes, region.n_pages, region.dwell_span
        r.scan_affinity, r.n_src = region.scan_affinity, len(backing)
        r.src[0:len(backing)] = [ords[s] for s, _ in backing]
        r.p[0:len(backing)] = [p for _, p in backing]
        packs.append(r)
    _REGIONS[id(region)] = tuple(packs)
    return packs[inst + 1]


# ----------------------------------------------------------------------
# Per-runner slice struct
# ----------------------------------------------------------------------
_LAT_FIELDS = (
    ("base_cpi", "base_cpi"), ("ierat_lat", "ierat_miss"),
    ("derat_lat", "derat_miss"), ("tlb_lat", "tlb_miss"),
    ("derat_redisp", "derat_redispatch"), ("covered_lat", "covered_prefetch"),
    ("alloc_lat", "stream_alloc"), ("store_miss_lat", "store_miss"),
    ("stcx_lat", "stcx_fail"), ("sync_lat", "sync"),
    ("sync_srq_lat", "sync_srq_cycles"), ("br_lat", "branch_mispredict"),
    ("ta_lat", "target_mispredict"), ("flush_w", "flush_width"),
    ("l2_redisp", "l2_miss_redispatch"),
)
_TEMPLATES: Dict[int, tuple] = {}


def _template(lat):
    """A ``slice_t`` holding the latencies and the module constants."""
    hit = _TEMPLATES.get(id(lat))
    if hit is not None and hit[0] is lat:
        return hit[1]
    from repro.cpu import stream

    t = FFI.new("slice_t *")
    for field, attr in _LAT_FIELDS:
        setattr(t, field, getattr(lat, attr))
    d = DataSource
    pen = {
        d.L2: lat.data_from_l2, d.L25_SHR: lat.data_from_l25,
        d.L25_MOD: lat.data_from_l25, d.L275_SHR: lat.data_from_l275,
        d.L275_MOD: lat.data_from_l275, d.L3: lat.data_from_l3,
        d.L35: lat.data_from_l35, d.MEM: lat.data_from_mem,
    }
    t.data_pen = [pen[src] for src in DataSource]
    t.inst_pen = [0.0, lat.inst_from_l2, lat.inst_from_l3, lat.inst_from_mem]
    t.l2_src = _DATA_ORD[d.L2]
    t.inv_scan_chunk, t.stcx_fail_p = stream._INV_SCAN_CHUNK, stream.STCX_FAIL_P
    t.instr_bytes = stream.INSTR_BYTES
    t.seq_load_step, t.seq_store_step = stream.SEQ_LOAD_STEP, stream.SEQ_STORE_STEP
    if len(_TEMPLATES) > 64:
        _TEMPLATES.clear()
    _TEMPLATES[id(lat)] = (lat, t)
    return t


class _Slice:
    """The ``slice_t`` of one SliceRunner (its run_until calls)."""

    def __init__(self, runner):
        ffi = FFI
        s = self.s = ffi.new("slice_t *")
        ffi.memmove(s, _template(runner.acct.lat), ffi.sizeof("slice_t"))
        self.reason = self.prof = None
        p = runner.profile
        mean_extra = p.block_mean - 1.0
        s.mean_extra = mean_extra
        s.inv_mean_extra = 1.0 / mean_extra if mean_extra > 0.0 else 0.0
        s.mem_per_instr, s.larx_per_instr = p.mem_per_instr, p.larx_per_instr
        s.sync_per_instr, s.load_fraction = p.sync_per_instr, p.load_fraction
        s.seq_load_fraction, s.seq_store_fraction = p.seq_load_fraction, p.seq_store_fraction
        s.call_frac, s.ind_frac = p.call_fraction, p.indirect_fraction
        s.hard_frac, s.dwell_p = p.hard_branch_fraction, runner._dwell_p
        s.dwell_override = runner._dwell_override

        # Distinct data regions, by name (the locality state's key).
        self.names, self.regions = [], []
        for region in (*runner._load_regions, *runner._store_regions):
            if region.name not in self.names:
                self.names.append(region.name)
                self.regions.append(region)
        regs = [_region(region, inst=False) for region in self.regions]
        code = _region(runner._code_region, inst=True)
        if code is None or None in regs or runner._dwell_override < 0:
            self.reason = "a region's draw bound or backing does not fit the kernel"
            return
        loc = {name: i for i, name in enumerate(self.names)}
        self.owners = (regs, code)  # _REGIONS may drop them; we may not
        self.regs = ffi.new("region_t *[]", regs)
        self.load_reg = ffi.new("int32_t[]", [loc[r.name] for r in runner._load_regions])
        self.store_reg = ffi.new("int32_t[]", [loc[r.name] for r in runner._store_regions])
        self.load_cum = ffi.new("double[]", runner._load_cum)
        self.store_cum = ffi.new("double[]", runner._store_cum)
        self.granule = ffi.new("int64_t[]", len(regs))
        self.seq_ptr = ffi.new("int64_t[]", len(regs))
        s.regs, s.code = self.regs, code
        s.load_reg, s.store_reg = self.load_reg, self.store_reg
        s.load_cum, s.store_cum = self.load_cum, self.store_cum
        s.n_load, s.n_store = len(runner._load_regions), len(runner._store_regions)
        s.granule, s.seq_ptr = self.granule, self.seq_ptr

        pool = self.pool = _pool(p.code_pool)
        index = pool.index
        active = [index.get(id(u), -1) for u in runner._active]
        if not pool.ok or -1 in active:
            self.reason = "the active code units are not the profile pool's"
            return
        self.active = ffi.new("int32_t[]", active)
        self.active_cum = ffi.new("double[]", runner._active_cum)
        s.units, s.cond_sid, s.cond_bias = pool.c_units, pool.cond_sid, pool.cond_bias
        s.sites, s.targets, s.tcum = pool.sites, pool.targets, pool.tcum
        s.active, s.active_cum, s.n_active = self.active, self.active_cum, len(active)
        self.mt = ffi.cast("uint32_t *", ffi.addressof(s, "rng"))

    def attach(self, prof) -> None:
        """Charge ``prof``'s sites from now on (nothing, for None)."""
        self.prof = prof
        if prof is None:
            self.s.prof = FFI.NULL
            return
        ffi = FFI
        self.rows = list(prof.counts.values())
        site = {id(row): i for i, row in enumerate(self.rows)}
        off, sites, bounds = [0], [], []
        for region in self.regions:
            ends, rows = prof.extents(region)
            bounds += ends
            sites += [site[id(row)] for row in rows]
            off.append(len(bounds))
        self.ext = (
            ffi.new("int32_t[]", off),
            ffi.new("int32_t[]", sites),
            ffi.new("int64_t[]", bounds or [0]),
            ffi.new("int64_t[]", len(self.rows) * _N_PROF),
        )
        s = self.s
        s.ext_off, s.ext_site, s.ext_bound, s.prof = self.ext
        self.zeros = bytes(8 * len(self.rows) * _N_PROF)


def run(runner, cycle_limit: float) -> bool:
    """Run ``runner.run_until(cycle_limit)`` in C; False if it declined.

    A declined call changed nothing; the caller runs it on the generic
    path.
    """
    sl = runner.__dict__.get("_native")
    if sl is None:
        sl = runner._native = _Slice(runner)
    if sl.reason is not None:
        DECLINED[sl.reason] += 1
        return False
    memory = runner.memory
    core = _CORES.get(memory)
    if core is None or core.ids != tuple(
        map(id, _bound(memory, runner.translation, runner.branches))
    ):
        release(memory)
        objs = _bound(memory, runner.translation, runner.branches)
        if not _fits(objs, memory, runner.translation):
            DECLINED["a structure exceeds the kernel's fixed capacity"] += 1
            return False
        core = _CORES[memory] = _Core(objs, memory, runner.translation)
    index = sl.pool.index.get(id(runner._unit))
    if index is None:
        DECLINED["the current code unit is not the profile pool's"] += 1
        return False

    ffi, s, c = FFI, sl.s, core.c
    acct = runner.acct
    s.cycles, s.completed = acct.cycles, acct.completed
    s.extra, s.srq = acct._extra_dispatch, acct._sync_srq_cycles
    s.unit, s.pos, s.fetched = index, runner._pos, runner._fetched_line
    granule, seq_ptr = runner._granule, runner._seq_ptr
    for i, name in enumerate(sl.names):
        sl.granule[i] = granule.get(name, -1)
        sl.seq_ptr[i] = seq_ptr.get(name, -1)
    rng = runner.rng
    state = rng.getstate()
    set_mt(sl.mt, state)
    pf = memory.prefetcher
    streams, runs, gather = pf._streams, pf._runs, memory._store_gather
    c.n_streams = len(streams)
    c.streams[0:len(streams)] = list(streams)
    c.n_runs = len(runs)
    c.run_key[0:len(runs)] = list(runs)
    c.run_len[0:len(runs)] = list(runs.values())
    c.n_gather = len(gather)
    c.gather[0:len(gather)] = list(gather)
    ffi.memmove(s.counts, _ZEROS, 8 * _N_COUNTS)
    ffi.memmove(s.stats, _ZEROS, 8 * 12)
    prof = _objprof._ACTIVE
    if prof is not sl.prof:
        sl.attach(prof)
    if prof is not None:
        ffi.memmove(s.prof, sl.zeros, len(sl.zeros))

    LIB.run_slice(c, s, cycle_limit)

    acct.cycles, acct.completed = s.cycles, s.completed
    acct._extra_dispatch, acct._sync_srq_cycles = s.extra, s.srq
    runner._unit = sl.pool.units[s.unit]
    runner._pos, runner._fetched_line = s.pos, s.fetched
    for i, name in enumerate(sl.names):
        if sl.granule[i] >= 0:
            granule[name] = sl.granule[i]
        if sl.seq_ptr[i] >= 0:
            seq_ptr[name] = sl.seq_ptr[i]
    rng.setstate(get_mt(sl.mt, state))
    streams.clear()
    streams.update(dict.fromkeys(ffi.unpack(c.streams, c.n_streams)))
    runs.clear()
    runs.update(zip(ffi.unpack(c.run_key, c.n_runs), ffi.unpack(c.run_len, c.n_runs)))
    gather.clear()
    gather.update(dict.fromkeys(ffi.unpack(c.gather, c.n_gather)))
    data = runner.bank.data
    for slot, n in zip(_K_SLOTS, ffi.unpack(s.counts, _N_COUNTS)):
        if n:
            data[slot] += n
    if prof is not None:
        rows = sl.rows
        for k, n in enumerate(ffi.unpack(s.prof, len(rows) * _N_PROF)):
            if n:
                rows[k // _N_PROF][_P_SLOTS[k % _N_PROF]] += n
    st = ffi.unpack(s.stats, 12)
    l1i, l1d, ierat, derat, tlb_cache = core.objs[:5]
    l1i.hits += st[0]
    l1i.misses += st[1]
    l1d.hits += st[2]
    l1d.misses += st[3]
    ierat.hits += st[4]
    ierat.misses += st[5]
    derat.hits += st[6]
    derat.misses += st[7]
    tlb = runner.translation.tlb
    tlb.data_hits += st[8]
    tlb.data_misses += st[9]
    tlb.inst_hits += st[10]
    tlb.inst_misses += st[11]
    tlb_cache.hits += st[8] + st[10]
    tlb_cache.misses += st[9] + st[11]
    return True


_ZEROS = bytes(8 * _N_COUNTS)


# Load (building on a cold cache) at import, so no timed window ever
# pays for the compiler; skipped when another engine is requested.
if os.environ.get(ENGINE_ENV, "").strip().lower() in ("", "native"):
    load()
