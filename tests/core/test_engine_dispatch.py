"""Engine selection: the registry and its one contract, fused ≡ reference.

The window-execution engine (:mod:`repro.cpu.engine`) travels through
``$REPRO_ENGINE``: ``reference`` swaps the pinned core into the
characterization, ``fused`` keeps the stock core.  The two must agree
bit for bit — per window (``tests/cpu/test_reference_equivalence.py``)
and, pinned here, for a whole rendered study.
"""

import pytest

from repro.core.characterization import Characterization
from repro.core.report import render_report
from repro.cpu.core_model import CoreModel
from repro.cpu.engine import (
    ENGINES,
    default_engine,
    resolve_engine,
    set_default_engine,
)
from repro.cpu.reference import ReferenceCoreModel
from repro.experiments.common import quick_config


@pytest.fixture(autouse=True)
def _clean_engine():
    # Tests here write $REPRO_ENGINE; none may leak it into later tests.
    set_default_engine(None)
    yield
    set_default_engine(None)


class TestEngineRegistry:
    def test_default_is_fused(self):
        assert default_engine() == "fused"

    def test_resolve_normalizes_and_validates(self):
        assert resolve_engine(None) == "fused"
        assert resolve_engine(" Reference ") == "reference"
        for bad in ("turbo", "vector"):
            with pytest.raises(ValueError, match="fused, reference"):
                resolve_engine(bad)

    def test_env_round_trip(self):
        for engine in ENGINES:
            set_default_engine(engine)
            assert default_engine() == engine
        set_default_engine(None)
        assert default_engine() == "fused"


class TestCoreResolution:
    def test_reference_engine_builds_reference_core(self):
        set_default_engine("reference")
        study = Characterization(quick_config())
        assert type(study.core) is ReferenceCoreModel

    def test_fused_engine_builds_stock_core(self):
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


def test_reference_report_is_byte_identical_to_fused():
    """The registry's promise at report level: the same study, rendered
    under either engine, is the same text — hardware summary, Figure 10
    correlations and derived findings included."""

    def rendered(engine):
        set_default_engine(engine)
        study = Characterization(quick_config())
        assert type(study.core) is (
            ReferenceCoreModel if engine == "reference" else CoreModel
        )
        report = study.run(hw_windows=12, correlation_windows_per_group=4)
        return render_report(report)

    assert rendered("reference") == rendered("fused")
