"""Tests for the full-reproduction sweep driver."""

import json

import pytest

from repro.experiments.reproduce_all import (
    CATALOG,
    SWEEP_STATS_SCHEMA,
    ReproductionRecord,
    load_stats_dict,
    run,
)
from tests.conftest import make_quick_config


class TestCatalog:
    def test_covers_every_paper_figure(self):
        titles = [title for title, _, _ in CATALOG]
        for n in range(2, 11):
            assert any(f"Figure {n}" == t for t in titles)

    def test_module_names_resolve(self):
        import importlib

        for _, module_name, _ in CATALOG:
            module = importlib.import_module(
                f"repro.experiments.{module_name}"
            )
            assert hasattr(module, "run")


class TestSubsetRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run(
            make_quick_config(),
            only=["fig03_gc", "fig04_profile", "tab_locking"],
        )

    def test_records_match_subset(self, result):
        assert set(result.records) == {"fig03_gc", "fig04_profile", "tab_locking"}

    def test_row_accounting(self, result):
        assert result.rows_total == sum(
            r.rows_total for r in result.records.values()
        )
        assert len(result.rows_off) == sum(
            len(r.rows_off) for r in result.records.values()
        )

    def test_summary_renders(self, result):
        text = "\n".join(result.summary_lines())
        assert "FULL REPRODUCTION SWEEP" in text
        assert "Figure 3" in text

    def test_full_render_includes_experiment_bodies(self, result):
        text = "\n".join(result.render_lines())
        assert "Garbage Collection Statistics" in text
        assert "Locking" in text

    def test_summary_reports_cache_and_jobs(self, result):
        text = "\n".join(result.summary_lines())
        assert "run cache:" in text
        assert "jobs: 1" in text


class TestOnlyValidation:
    def test_unknown_module_raises_with_valid_names(self):
        with pytest.raises(ValueError) as err:
            run(make_quick_config(), only=["fig03_gc", "fig99_nope"])
        message = str(err.value)
        assert "fig99_nope" in message
        # The error teaches the valid vocabulary.
        assert "fig03_gc" in message and "exp_resilience" in message

    def test_typo_does_not_yield_clean_empty_sweep(self):
        with pytest.raises(ValueError):
            run(make_quick_config(), only=["fig03-gc"])


class TestStatsSchema:
    @pytest.fixture(scope="class")
    def result(self):
        return run(make_quick_config(), only=["fig03_gc"])

    def test_stats_carry_schema_and_supervision_fields(self, result):
        stats = result.stats_dict()
        assert stats["schema"] == SWEEP_STATS_SCHEMA
        assert stats["resumed"] == []
        assert stats["pool_failures"] == 0
        assert stats["degraded"] is False
        assert stats["engine"] == "fused"
        assert "packed" not in stats
        entry = stats["per_experiment"]["fig03_gc"]
        assert entry["attempts"] == 1
        assert entry["retries"] == 0
        assert entry["timed_out"] == 0

    def test_round_trips_through_json(self, result):
        stats = result.stats_dict()
        reloaded = load_stats_dict(json.loads(json.dumps(stats)))
        assert reloaded == stats

    def test_v1_document_migrates_with_defaults(self):
        legacy = {
            "wall_clock_s": 12.5,
            "jobs": 4,
            "experiments": 1,
            "per_experiment": {
                "fig03_gc": {"seconds": 12.5, "rows": 5, "off": 0}
            },
        }
        migrated = load_stats_dict(legacy)
        assert migrated["schema"] == SWEEP_STATS_SCHEMA
        assert migrated["resumed"] == []
        assert migrated["pool_failures"] == 0
        assert migrated["degraded"] is False
        entry = migrated["per_experiment"]["fig03_gc"]
        assert entry["attempts"] == 1
        assert entry["retries"] == 0
        assert entry["timed_out"] == 0
        # Original fields survive; the input is not mutated.
        assert entry["seconds"] == 12.5
        assert "schema" not in legacy

    @pytest.mark.parametrize("schema", [2, 3])
    def test_schema_2_and_3_documents_migrate(self, schema):
        legacy = {
            "schema": schema,
            "wall_clock_s": 5.0,
            "jobs": 2,
            "experiments": 1,
            "resumed": [],
            "pool_failures": 0,
            "degraded": False,
            "per_experiment": {},
        }
        if schema == 3:
            legacy.update(
                engine="reference",
                packed=False,
                batches=[],
                planned_lanes=0,
                packed_lanes=0,
                pack_efficiency=1.0,
            )
        migrated = load_stats_dict(legacy)
        assert migrated["schema"] == SWEEP_STATS_SCHEMA
        # Schema 2 predates engine selection; schema 3 carried it.
        assert migrated["engine"] == ("fused" if schema == 2 else "reference")
        # Schema 3's packed-sweep accounting is dropped, not carried.
        for key in (
            "packed",
            "batches",
            "planned_lanes",
            "packed_lanes",
            "pack_efficiency",
        ):
            assert key not in migrated
        assert migrated["jobs"] == 2
        assert legacy["schema"] == schema

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            load_stats_dict({"schema": 99})


class TestJournalRecordRoundTrip:
    def test_lossless(self):
        record = ReproductionRecord(
            title="Figure 3",
            module="fig03_gc",
            seconds=1.25,
            rows_total=5,
            rows_off=["minor GC count"],
            lines=["line one", "line two"],
            cache_hits=2,
            cache_misses=1,
            attempts=3,
            retries=2,
            timed_out=1,
        )
        doc = json.loads(json.dumps(record.to_journal_dict()))
        assert ReproductionRecord.from_journal_dict(doc) == record

    def test_defaults_for_pre_supervisor_journal_lines(self):
        doc = {
            "title": "Figure 3",
            "module": "fig03_gc",
            "seconds": 1.0,
            "rows_total": 5,
            "rows_off": [],
            "lines": ["body"],
        }
        record = ReproductionRecord.from_journal_dict(doc)
        assert record.attempts == 1
        assert record.retries == 0
        assert record.timed_out == 0


@pytest.mark.slow
class TestParallelSweep:
    """jobs=N must be a pure wall-clock optimization."""

    SUBSET = ["fig02_throughput", "fig03_gc", "tab_utilization"]

    @pytest.fixture(scope="class")
    def serial(self):
        return run(make_quick_config(), only=self.SUBSET)

    @pytest.fixture(scope="class")
    def parallel(self):
        return run(make_quick_config(), only=self.SUBSET, jobs=4)

    def test_report_byte_identical_to_serial(self, serial, parallel):
        assert parallel.render_lines(include_timing=False) == serial.render_lines(
            include_timing=False
        )

    def test_records_in_catalog_order(self, serial, parallel):
        assert list(parallel.records) == list(serial.records) == self.SUBSET

    def test_rows_accounting_matches(self, serial, parallel):
        assert parallel.rows_total == serial.rows_total
        assert parallel.rows_off == serial.rows_off
