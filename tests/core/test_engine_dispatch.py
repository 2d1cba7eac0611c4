"""Engine selection: the registry and its one contract, native ≡ reference.

The window-execution engine (:mod:`repro.cpu.engine`) travels through
``$REPRO_ENGINE``: ``reference`` swaps the pinned core into the
characterization, ``native`` keeps the stock core (whose slice runner
runs the kernel in C, or the generic Python path when C is
unavailable).  Both must agree bit for bit — per window
(``tests/cpu/test_reference_equivalence.py``) and, pinned here, for a
whole rendered study.
"""

import pytest

from repro.core.characterization import Characterization
from repro.core.report import render_report
from repro.cpu.core_model import CoreModel
from repro.cpu import native
from repro.cpu.engine import (
    ENGINES,
    default_engine,
    effective_engine,
    resolve_engine,
    set_default_engine,
)
from repro.cpu.reference import ReferenceCoreModel
from repro.experiments import fig05_cpi, tab_locking
from repro.experiments.common import quick_config
from repro.perf.benchsuite import _core_builder


@pytest.fixture(autouse=True)
def _clean_engine():
    # Tests here write $REPRO_ENGINE; none may leak it into later tests.
    set_default_engine(None)
    yield
    set_default_engine(None)


class TestEngineRegistry:
    def test_default_is_native(self):
        assert default_engine() == "native"

    def test_resolve_normalizes_and_validates(self):
        assert resolve_engine(None) == "native"
        assert resolve_engine(" Reference ") == "reference"
        for bad in ("turbo", "vector", "fused"):
            with pytest.raises(ValueError, match="native, reference"):
                resolve_engine(bad)

    def test_env_round_trip(self):
        for engine in ENGINES:
            set_default_engine(engine)
            assert default_engine() == engine
        set_default_engine(None)
        assert default_engine() == "native"

    def test_effective_engine(self):
        expected = ("native", None) if native.LIB is not None else (
            "generic", native.REASON
        )
        assert effective_engine() == expected
        set_default_engine("reference")
        assert effective_engine() == ("reference", None)


class _Built(Exception):
    """Raised by the spy once a core exists, to stop the experiment."""


class TestCoreResolution:
    def test_reference_engine_builds_reference_core(self):
        set_default_engine("reference")
        study = Characterization(quick_config())
        assert type(study.core) is ReferenceCoreModel

    def test_native_engine_builds_stock_core(self):
        study = Characterization(quick_config())
        assert type(study.core) is CoreModel

    def test_explicit_rebinding_wins_over_engine(self):
        class Pinned(Characterization):
            core_model_cls = ReferenceCoreModel

        study = Pinned(quick_config())
        assert type(study.core) is ReferenceCoreModel
        set_default_engine("reference")
        assert Pinned(quick_config())._resolved_core_model_cls() is (
            ReferenceCoreModel
        )

    @pytest.mark.parametrize("engine", ["reference", "native"])
    def test_every_core_builder_follows_the_engine(self, engine, monkeypatch):
        """Every site that builds a core takes its class from the engine."""
        set_default_engine(engine)
        expected = ReferenceCoreModel if engine == "reference" else CoreModel
        assert type(Characterization(quick_config()).core) is expected
        setup, _ = _core_builder(windows=1, window_cycles=1000)
        assert type(setup()) is expected

        def spy(core, windows):
            raise _Built(type(core))

        monkeypatch.setattr(CoreModel, "warm_up", spy)
        for measure in (fig05_cpi.measure_idle_cpi, tab_locking._kernel_sync_fraction):
            with pytest.raises(_Built) as built:
                measure(quick_config())
            assert built.value.args[0] is expected


def test_reference_report_is_byte_identical_to_native():
    """The registry's promise at report level: the same study, rendered
    under any engine, is the same text — hardware summary, Figure 10
    correlations and derived findings included."""

    def rendered(engine):
        set_default_engine(engine)
        study = Characterization(quick_config())
        assert type(study.core) is (
            ReferenceCoreModel if engine == "reference" else CoreModel
        )
        report = study.run(hw_windows=12, correlation_windows_per_group=4)
        return render_report(report)

    assert rendered("reference") == rendered("native")
