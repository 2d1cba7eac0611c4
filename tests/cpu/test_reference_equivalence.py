"""Determinism regression: the kernel rewrite changed no golden output.

Runs the stock :class:`~repro.cpu.core_model.CoreModel` — once on the
``native`` engine (the kernel in C) and once on the generic Python
path — and the pinned pre-optimization
:class:`~repro.cpu.reference.ReferenceCoreModel` side by side on a
fixed seed and asserts every per-window counter snapshot and every
piece of persistent hardware state (cache and TLB hit/miss totals, and
between the two stock cores the way lists and predictor tables
themselves) is identical — the C kernel must draw the same RNG
sequence and add the same floats in the same order as the original
structures.
"""

import random

import pytest

from repro.config import JvmConfig, MachineConfig, SamplingConfig
from repro.cpu import native
from repro.cpu.core_model import CoreModel, StaticSchedule
from repro.cpu.engine import set_default_engine
from repro.cpu.phases import (
    PhaseDescriptor,
    gc_mark_profile,
    idle_profile,
    kernel_profile,
)
from repro.cpu.reference import ReferenceCoreModel
from repro.cpu.regions import AddressSpace
from repro.util.rng import RngFactory

N_WINDOWS = 8
#: The paths a stock core's windows take, by the engine that selects
#: them: C, and the generic Python path (a stock core under engine
#: ``reference`` never runs C).  The reference core has its own.
STOCK_PATHS = {"native": "native", "generic": "reference"}


def _build(model_cls, seed):
    machine = MachineConfig()
    space = AddressSpace.build(machine, JvmConfig())
    prof_rng = random.Random(7)
    kernel = kernel_profile(prof_rng, space)
    gc = gc_mark_profile(prof_rng, space)
    idle = idle_profile(prof_rng, space)
    descriptor = PhaseDescriptor(slices=((kernel, 0.5), (gc, 0.3), (idle, 0.2)))
    sampling = SamplingConfig(window_cycles=30000)
    return model_cls(
        machine, space, StaticSchedule(descriptor), sampling, RngFactory(seed)
    )


def _run_on(engine, core, windows):
    set_default_engine(engine)
    try:
        return [core.execute_window(w) for w in windows]
    finally:
        set_default_engine(None)


@pytest.fixture(scope="module", params=[42, 2007])
def models(request):
    """``(stock cores by path, reference core, snapshots by path)``."""
    seed = request.param
    cores = {path: _build(CoreModel, seed) for path in STOCK_PATHS}
    reference = _build(ReferenceCoreModel, seed)
    snaps = {
        path: _run_on(STOCK_PATHS[path], core, range(N_WINDOWS))
        for path, core in cores.items()
    }
    snaps["reference"] = _run_on(None, reference, range(N_WINDOWS))
    return cores, reference, snaps


class TestSnapshotsIdentical:
    def test_every_window_bit_identical(self, models):
        _, _, snaps = models
        for path in STOCK_PATHS:
            for w, (opt, ref) in enumerate(zip(snaps[path], snaps["reference"])):
                assert dict(opt.counts) == dict(ref.counts), (
                    f"{path} window {w} diverged"
                )

    def test_nonzero_activity(self, models):
        """Guard against vacuous equality: the windows did real work."""
        _, _, snaps = models
        total = sum(s.instructions for s in snaps["reference"])
        assert total > 10_000


class TestHardwareStateIdentical:
    def test_cache_stats(self, models):
        cores, reference, _ = models
        for optimized in cores.values():
            for attr in ("l1i", "l1d"):
                opt = getattr(optimized.memory, attr)
                ref = getattr(reference.memory, attr)
                assert (opt.hits, opt.misses) == (ref.hits, ref.misses)

    def test_translation_stats(self, models):
        cores, reference, _ = models
        for optimized in cores.values():
            self._translation_stats(optimized, reference)

    @staticmethod
    def _translation_stats(optimized, reference):
        opt_t, ref_t = optimized.translation, reference.translation
        for erat in ("ierat", "derat"):
            opt_c = getattr(opt_t, erat).cache
            ref_c = getattr(ref_t, erat).cache
            assert (opt_c.hits, opt_c.misses) == (ref_c.hits, ref_c.misses)
        opt_tlb, ref_tlb = opt_t.tlb, ref_t.tlb
        assert (
            opt_tlb.data_hits,
            opt_tlb.data_misses,
            opt_tlb.inst_hits,
            opt_tlb.inst_misses,
        ) == (
            ref_tlb.data_hits,
            ref_tlb.data_misses,
            ref_tlb.inst_hits,
            ref_tlb.inst_misses,
        )

    def test_prefetcher_state(self, models):
        cores, reference, _ = models
        for optimized in cores.values():
            assert (
                optimized.memory.prefetcher.active_streams
                == reference.memory.prefetcher.active_streams
            )

    def test_native_state_written_back_exactly(self, models):
        """What the C struct held between calls comes back unchanged:
        after :func:`~repro.cpu.native.release` the native core's way
        lists, predictor tables, prefetcher and backing RNG equal the
        generic core's."""
        cores = models[0]

        def state(core):
            m, t, b = core.memory, core.translation, core.branches
            caches = (m.l1i, m.l1d, t.ierat.cache, t.derat.cache, t.tlb.cache)
            return (
                [c.sets for c in caches],
                b.direction._table,
                b.target._table,
                dict(m.prefetcher._streams),
                dict(m.prefetcher._runs),
                dict(m._store_gather),
                m.rng.getstate(),
            )

        native.release(cores["native"].memory)
        assert state(cores["native"]) == state(cores["generic"])


class TestInstrumentedWindowIdentical:
    """An active observability session must not perturb the kernels.

    One window of the optimized model executed *under a session* is
    compared against the uninstrumented reference — the instrumentation
    in the slice runner reads accountant totals and wall time only, so
    the counter snapshot must stay bit-identical while the session
    records real slice activity.
    """

    @pytest.fixture(scope="class")
    def window(self):
        from repro.obs import Observability, observe

        optimized = _build(CoreModel, 2007)
        reference = _build(ReferenceCoreModel, 2007)
        with observe(Observability()) as obs:
            instrumented = optimized.execute_window(0)
        baseline = reference.execute_window(0)
        return instrumented, baseline, obs

    def test_counts_bit_identical(self, window):
        instrumented, baseline, _ = window
        assert dict(instrumented.counts) == dict(baseline.counts)

    def test_session_saw_the_slices(self, window):
        _, _, obs = window
        assert obs.metrics.value("cpu.slices") >= 1
        assert obs.metrics.value("cpu.instructions") > 0
        profiles = {
            dict(s.labels).get("profile")
            for s in obs.tracer.by_category("cpu")
        }
        assert profiles  # every slice span is labeled with its phase


def test_reference_runner_never_fuses():
    reference = _build(ReferenceCoreModel, 1)
    runner = reference.slice_runner_cls(
        profile=kernel_profile(random.Random(1), reference.space),
        space=reference.space,
        memory=reference.memory,
        translation=reference.translation,
        branches=reference.branches,
        accountant=reference.accountant_cls(
            reference.machine.latencies, random.Random(2)
        ),
        counters=reference._bank,
        rng=random.Random(3),
    )
    assert not runner._can_fuse()
