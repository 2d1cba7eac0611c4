"""Engine ``native``: fallback, declines, state hand-over and import cost.

The per-window bit-identity of the compiled kernel is pinned by
``test_reference_equivalence.py`` and ``test_fused_fallback.py``; this
file covers what is specific to it: it falls back to ``fused`` (and
says why) when it cannot load, it declines slices it cannot run
exactly, its C-held state survives switching engines mid-run, and a
warm build cache keeps ``cffi`` out of ``import repro``.  The slow
property test drives random profiles through many windows.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchio import bench_payload
from repro.config import JvmConfig, MachineConfig, SamplingConfig
from repro.cpu import native
from repro.cpu import regions as R
from repro.cpu.core_model import CoreModel, StaticSchedule
from repro.cpu.engine import effective_engine, set_default_engine
from repro.cpu.phases import (
    MONO_POLY,
    MUTATOR_POLY,
    PhaseDescriptor,
    PhaseProfile,
    build_pool,
    gc_mark_profile,
    kernel_profile,
)
from repro.cpu.reference import ReferenceCoreModel
from repro.cpu.regions import AddressSpace
from repro.util.rng import RngFactory

needs_native = pytest.mark.skipif(
    native.LIB is None, reason=f"native kernel unavailable: {native.REASON}"
)


@pytest.fixture(autouse=True)
def _clean_engine():
    set_default_engine(None)
    yield
    set_default_engine(None)


def _core(model_cls=CoreModel, seed=2007, space=None, slices=None, cycles=30000):
    machine = MachineConfig()
    space = space or AddressSpace.build(machine, JvmConfig())
    if slices is None:
        rng = random.Random(7)
        slices = ((kernel_profile(rng, space), 0.6), (gc_mark_profile(rng, space), 0.4))
    return model_cls(
        machine,
        space,
        StaticSchedule(PhaseDescriptor(slices=slices)),
        SamplingConfig(window_cycles=cycles),
        RngFactory(seed),
    )


def _counts(core, windows, engine=None):
    set_default_engine(engine)
    return [dict(core.execute_window(w).counts) for w in windows]


class TestFallback:
    def test_loader_failure_runs_fused_and_says_why(self, monkeypatch):
        def broken():
            raise OSError("no compiler on this host")

        monkeypatch.setattr(native, "_ensure_built", broken)
        monkeypatch.setattr(native, "LIB", None)
        monkeypatch.setattr(native, "FFI", None)
        monkeypatch.setattr(native, "REASON", native._NOT_LOADED)
        engine, reason = effective_engine()
        assert engine == "fused"
        assert "no compiler on this host" in reason
        assert native.REASON == reason
        stamp = bench_payload({}, "probe")
        assert (stamp["engine"], stamp["engine_reason"]) == ("fused", reason)

        core = _core()
        assert _counts(core, range(3)) == _counts(_core(ReferenceCoreModel), range(3))
        assert core.memory not in native._CORES

    def test_failed_build_is_not_retried(self, monkeypatch, tmp_path):
        """A host without a compiler pays for one attempt, not one per import."""
        calls = []

        def no_compiler(*args):
            calls.append(args)
            raise OSError("gcc: not found")

        monkeypatch.setattr(native, "cache_root", lambda: tmp_path)
        monkeypatch.setattr(native, "_build", no_compiler)
        with pytest.raises(OSError, match="gcc: not found"):
            native._ensure_built()
        with pytest.raises(RuntimeError, match="earlier build failed: OSError: gcc"):
            native._ensure_built()
        assert len(calls) == 1

    @needs_native
    def test_draw_bound_over_32_bits_declines(self):
        """A 4 GB region needs a 33-bit draw: the slice runs on fused."""
        machine = MachineConfig()
        space = AddressSpace.build(machine, JvmConfig(), db_buffer_mb=4096)
        profile = _profile(space, load_mix=((R.DB_BUFFER, 1.0),))
        before = native.DECLINED.copy()
        core = _core(space=space, slices=((profile, 1.0),))
        got = _counts(core, range(2))
        declined = native.DECLINED - before
        assert list(declined) == [
            "a region's draw bound or backing does not fit the kernel"
        ]
        reference = _core(ReferenceCoreModel, space=space, slices=((profile, 1.0),))
        assert got == _counts(reference, range(2))


@needs_native
def test_engines_can_alternate_window_by_window():
    """native, fused, native...: each switch hands the C-held state over."""
    core = _core()
    plan = ["native", "native", "fused", "native", "fused", "fused", "native"]
    got = [_counts(core, [w], engine)[0] for w, engine in enumerate(plan)]
    assert got == _counts(_core(ReferenceCoreModel), range(len(plan)))


@needs_native
def test_warm_import_does_not_load_cffi():
    """``import repro`` on a warm cache loads the kernel, not cffi."""
    src = Path(native.__file__).resolve().parents[2]
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ENGINE"}
    env["PYTHONPATH"] = str(src)
    probe = (
        "import sys, repro\n"
        "from repro.cpu import native\n"
        "print(native.LIB is not None, 'cffi' in sys.modules, "
        "'pycparser' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["True", "False", "False"]


def _profile(space, load_mix, store_mix=((R.STACK, 1.0),), code=R.CODE_GC,
             poly=MUTATOR_POLY, seed=0, **knobs):
    region = space[code]
    pool = build_pool(
        random.Random(seed),
        region.base,
        region.size_bytes,
        n_units=8,
        mean_size=768,
        weights=[1.0 + i for i in range(8)],
        poly_classes=poly,
    )
    fields = dict(
        name="probe",
        code_pool=pool,
        code_region=code,
        active_units=5,
        block_mean=5.0,
        mem_per_instr=0.5,
        load_fraction=0.6,
        load_mix=load_mix,
        store_mix=store_mix,
    )
    fields.update(knobs)
    return PhaseProfile(**fields)


_DATA = [R.STACK, R.HEAP_HOT, R.HEAP_MEDIUM, R.HEAP_COLD, R.HEAP_ALLOC,
         R.HEAP_SHARED, R.GC_BITMAP, R.DB_BUFFER, R.NATIVE_DATA]
_CODE = [R.CODE_JIT, R.CODE_NATIVE, R.CODE_KERNEL, R.CODE_GC]


@st.composite
def _mix(draw):
    names = draw(st.lists(st.sampled_from(_DATA), min_size=1, max_size=4, unique=True))
    weights = [draw(st.integers(1, 9)) for _ in names]
    total = sum(weights)
    return tuple((n, w / total) for n, w in zip(names, weights))


@st.composite
def _profile_knobs(draw):
    return dict(
        load_mix=draw(_mix()),
        store_mix=draw(_mix()),
        code=draw(st.sampled_from(_CODE)),
        poly=draw(st.sampled_from([MUTATOR_POLY, MONO_POLY, ((1.0, 4, 8),)])),
        seed=draw(st.integers(0, 1000)),
        block_mean=draw(st.sampled_from([1.0, 2.5, 6.0, 11.0])),
        mem_per_instr=draw(st.floats(0.0, 1.2)),
        load_fraction=draw(st.floats(0.0, 1.0)),
        seq_load_fraction=draw(st.sampled_from([0.0, 0.1, 0.6])),
        seq_store_fraction=draw(st.sampled_from([0.0, 0.1, 0.6])),
        page_dwell=draw(st.sampled_from([1.0, 4.0, 32.0])),
        dwell_span_override=draw(st.sampled_from([0, 256, 1024, 8192])),
        hard_branch_fraction=draw(st.sampled_from([0.0, 0.05, 0.5])),
        indirect_fraction=draw(st.sampled_from([0.0, 0.07, 0.4])),
        call_fraction=draw(st.sampled_from([0.0, 0.12, 0.6])),
        larx_per_instr=draw(st.sampled_from([0.0, 0.01, 0.3])),
        sync_per_instr=draw(st.sampled_from([0.0, 0.005, 0.2])),
    )


@pytest.mark.slow
@needs_native
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    knobs=st.lists(_profile_knobs(), min_size=1, max_size=3),
    large_pages=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_random_profiles_bit_identical(knobs, large_pages, seed):
    """Random profiles, many consecutive windows, Python draws between
    them: native and fused agree on every counter and, after release,
    on every piece of hardware state."""
    machine = MachineConfig()
    space = AddressSpace.build(
        machine, JvmConfig(heap_large_pages=large_pages, code_large_pages=large_pages)
    )
    slices = tuple((_profile(space, **k), 1.0 / len(knobs)) for k in knobs)
    cores = {e: _core(seed=seed, space=space, slices=slices, cycles=8000)
             for e in ("native", "fused")}
    declined = native.DECLINED.copy()
    for w in range(12):
        counts = {e: _counts(core, [w], e) for e, core in cores.items()}
        assert counts["native"] == counts["fused"], f"window {w}"
        for core in cores.values():
            core._rng_stream.getrandbits(w + 1)
            core._rng_stream.random()
    assert native.DECLINED == declined  # every slice ran in C
    native.release(cores["native"].memory)

    def state(core):
        m, t, b = core.memory, core.translation, core.branches
        caches = (m.l1i, m.l1d, t.ierat.cache, t.derat.cache, t.tlb.cache)
        return ([c.sets for c in caches], [(c.hits, c.misses) for c in caches],
                b.direction._table, b.target._table, dict(m.prefetcher._runs),
                dict(m.prefetcher._streams), dict(m._store_gather),
                m.rng.getstate(), core._rng_stream.getstate())

    assert state(cores["native"]) == state(cores["fused"])
