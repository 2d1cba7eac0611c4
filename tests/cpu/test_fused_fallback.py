"""Direct coverage of the fused-kernel fallback guard.

``SliceRunner._can_fuse`` decides between the fused C kernel (engine
``native``; it reaches past public methods into way lists and
predictor tables) and ``_run_generic`` (the readable specification,
driving the public interfaces).  Nothing else in the suite exercised
the generic path via a *subclassed* collaborator, so a stale fallback
would only surface in user code.  These tests force the generic path
through behaviour-preserving subclasses and assert it stays
bit-identical to the pinned
:class:`~repro.cpu.reference.ReferenceCoreModel` — the ``native``
engine must decline such a slice and release the core's state to the
Python objects first.
"""

import random

import pytest

from repro.config import JvmConfig, MachineConfig, SamplingConfig
from repro.cpu.branch import BranchUnit
from repro.cpu.cache import SetAssociativeCache
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

N_WINDOWS = 4
SEED = 1311


def _windows(core, windows):
    set_default_engine("native")
    try:
        return [core.execute_window(w) for w in windows]
    finally:
        set_default_engine(None)


class PassthroughBranchUnit(BranchUnit):
    """Subclass with unchanged behaviour: must still force the fallback."""


class PassthroughCache(SetAssociativeCache):
    """Same — any cache subclass invalidates the C way-list access."""


def _build(model_cls, seed=SEED):
    machine = MachineConfig()
    space = AddressSpace.build(machine, JvmConfig())
    prof_rng = random.Random(7)
    descriptor = PhaseDescriptor(
        slices=(
            (kernel_profile(prof_rng, space), 0.5),
            (gc_mark_profile(prof_rng, space), 0.3),
            (idle_profile(prof_rng, space), 0.2),
        )
    )
    sampling = SamplingConfig(window_cycles=30000)
    return model_cls(
        machine, space, StaticSchedule(descriptor), sampling, RngFactory(seed)
    )


def _first_runner(core):
    descriptor = core.schedule.descriptor_for(0)
    return core.slice_runner_cls(
        profile=descriptor.slices[0][0],
        space=core.space,
        memory=core.memory,
        translation=core.translation,
        branches=core.branches,
        accountant=core.accountant_cls(core.machine.latencies, random.Random(2)),
        counters=core._bank,
        rng=random.Random(3),
    )


def _hardware_state(core):
    t = core.translation
    return {
        "l1i": (core.memory.l1i.hits, core.memory.l1i.misses),
        "l1d": (core.memory.l1d.hits, core.memory.l1d.misses),
        "ierat": (t.ierat.cache.hits, t.ierat.cache.misses),
        "derat": (t.derat.cache.hits, t.derat.cache.misses),
        "tlb": (t.tlb.data_hits, t.tlb.data_misses, t.tlb.inst_hits, t.tlb.inst_misses),
    }


class SubclassedBranchCore(CoreModel):
    branch_unit_cls = PassthroughBranchUnit


@pytest.fixture(scope="module")
def reference_snaps():
    reference = _build(ReferenceCoreModel)
    snaps = [reference.execute_window(w) for w in range(N_WINDOWS)]
    return snaps, _hardware_state(reference)


class TestSubclassForcesGenericPath:
    def test_branch_subclass_disables_fusing(self):
        core = _build(SubclassedBranchCore)
        assert not _first_runner(core)._can_fuse()

    def test_cache_subclass_disables_fusing(self):
        core = _build(CoreModel)
        geo = core.machine.l1d
        core.memory.l1d = PassthroughCache(
            n_sets=core.memory.l1d.n_sets,
            associativity=geo.associativity,
            policy=geo.policy,
        )
        assert not _first_runner(core)._can_fuse()

    def test_instance_patch_disables_fusing(self):
        core = _build(CoreModel)
        original = core.memory.load
        core.memory.load = lambda addr, region: original(addr, region)
        assert not _first_runner(core)._can_fuse()

    def test_stock_core_fuses(self):
        assert _first_runner(_build(CoreModel))._can_fuse()


class TestDeclineCounter:
    """``native.DECLINED`` counts slices that left C, and only those."""

    def test_reference_window_is_not_a_decline(self):
        before = native.DECLINED.copy()
        _windows(_build(ReferenceCoreModel), range(1))
        assert native.DECLINED == before

    @pytest.mark.skipif(native.LIB is None, reason="native kernel unavailable")
    def test_patched_stock_core_is_a_decline(self):
        core = _build(CoreModel)
        original = core.memory.load
        core.memory.load = lambda addr, region: original(addr, region)
        before = native.DECLINED.copy()
        _windows(core, range(1))
        declined = native.DECLINED - before
        assert list(declined) == ["a collaborator is subclassed or patched"]


class TestGenericPathBitIdentical:
    """The forced fallback reproduces the reference windows exactly."""

    def test_branch_subclass_windows(self, reference_snaps):
        ref_snaps, ref_hw = reference_snaps
        core = _build(SubclassedBranchCore)
        snaps = _windows(core, range(N_WINDOWS))
        for w, (snap, ref) in enumerate(zip(snaps, ref_snaps)):
            assert dict(snap.counts) == dict(ref.counts), f"window {w} diverged"
        assert _hardware_state(core) == ref_hw

    def test_cache_subclass_windows(self, reference_snaps):
        ref_snaps, ref_hw = reference_snaps
        core = _build(CoreModel)
        for attr in ("l1i", "l1d"):
            geo = getattr(core.machine, attr)
            stock = getattr(core.memory, attr)
            setattr(
                core.memory,
                attr,
                PassthroughCache(
                    n_sets=stock.n_sets,
                    associativity=geo.associativity,
                    policy=geo.policy,
                ),
            )
        snaps = _windows(core, range(N_WINDOWS))
        for w, (snap, ref) in enumerate(zip(snaps, ref_snaps)):
            assert dict(snap.counts) == dict(ref.counts), f"window {w} diverged"
        assert _hardware_state(core) == ref_hw

    def test_native_hands_its_state_to_the_generic_path(self, reference_snaps):
        """Native windows, then a patch that forces the generic path:
        the C-held caches, tables and backing RNG must come back to the
        Python objects before the generic path reads them."""
        ref_snaps, ref_hw = reference_snaps
        core = _build(CoreModel)
        half = N_WINDOWS // 2
        snaps = _windows(core, range(half))
        original = core.memory.load
        core.memory.load = lambda addr, region: original(addr, region)
        snaps += _windows(core, range(half, N_WINDOWS))
        for w, (snap, ref) in enumerate(zip(snaps, ref_snaps)):
            assert dict(snap.counts) == dict(ref.counts), f"window {w} diverged"
        assert _hardware_state(core) == ref_hw
