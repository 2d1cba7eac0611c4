"""Tests for the full-reproduction sweep driver."""

import json

import pytest

from repro.cpu.engine import effective_engine
from repro.experiments.reproduce_all import (
    CATALOG,
    SHARED_RUNS,
    SWEEP_STATS_SCHEMA,
    ReproductionRecord,
    _execute,
    catalog_modules,
    load_stats_dict,
    run,
    shared_runs_to_presimulate,
)
from repro.runcache import RunCache, config_key, set_default_cache
from tests.conftest import make_quick_config


def isolated_run(*args, **kwargs):
    """``run`` against a private, empty run cache."""
    previous = set_default_cache(RunCache())
    try:
        return run(*args, **kwargs)
    finally:
        set_default_cache(previous)


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


class TestSharedRuns:
    """A pool sweep simulates each run its experiments share once."""

    def test_users_are_catalog_modules(self):
        for users in SHARED_RUNS.values():
            assert set(users) <= set(catalog_modules())

    def test_only_runs_two_pending_experiments_share(self):
        assert shared_runs_to_presimulate(
            ["fig02_throughput", "fig03_gc", "fig04_profile"]
        ) == [(None, "fig02_throughput")]
        assert shared_runs_to_presimulate(
            ["fig04_profile", "fig05_cpi", "exp_cluster"]
        ) == [("workload", "fig04_profile")]
        # One user (an --only subset, or the rest restored from a
        # journal): the pool's single lookup is the only simulation.
        assert shared_runs_to_presimulate(["fig02_throughput", "fig04_profile"]) == []

    def test_pool_sweep_simulates_shared_baseline_once(self):
        subset = ["fig02_throughput", "fig03_gc"]
        serial = isolated_run(make_quick_config(), only=subset)
        pooled = isolated_run(make_quick_config(), only=subset, jobs=2)
        # Both experiments look up the baseline run; two workers used
        # to simulate it at the same time.
        assert serial.cache_misses == pooled.cache_misses == 1
        assert [(r.cache_hits, r.cache_misses) for r in pooled.records.values()] == [
            (r.cache_hits, r.cache_misses) for r in serial.records.values()
        ]
        assert pooled.render_lines(include_timing=False) == serial.render_lines(
            include_timing=False
        )

    @pytest.mark.slow
    def test_table_rows_list_exactly_their_users(self):
        """Walk the quick catalog and log each experiment's run lookups:
        each row of the table names exactly the experiments that look
        that run up, so presimulating it adds no simulation and leaves
        no user to simulate it again.  (Runs of derived configs that two
        experiments share are not rows: their users sit four or more
        places apart in catalog order, so a pool's disk tier serves the
        later lookup.)"""

        class LookupLog(RunCache):
            def get_or_run(self, config, rng_fork=None):
                self.keys.append(config_key(config, rng_fork))
                return super().get_or_run(config, rng_fork)

        config = make_quick_config()
        cache = LookupLog()
        cache.keys = []
        users = {}
        previous = set_default_cache(cache)
        try:
            for title, module_name, kwargs in CATALOG:
                start = len(cache.keys)
                _execute((title, module_name, kwargs, config))
                for key in set(cache.keys[start:]):
                    users.setdefault(key, set()).add(module_name)
        finally:
            set_default_cache(previous)
        for rng_fork, listed in SHARED_RUNS.items():
            assert users[config_key(config, rng_fork)] == set(listed), rng_fork


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
        assert (stats["engine"], stats["engine_reason"]) == effective_engine()
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
        return isolated_run(make_quick_config(), only=self.SUBSET)

    @pytest.fixture(scope="class")
    def parallel(self):
        return isolated_run(make_quick_config(), only=self.SUBSET, jobs=4)

    def test_report_byte_identical_to_serial(self, serial, parallel):
        assert parallel.render_lines(include_timing=False) == serial.render_lines(
            include_timing=False
        )

    def test_records_in_catalog_order(self, serial, parallel):
        assert list(parallel.records) == list(serial.records) == self.SUBSET

    def test_rows_accounting_matches(self, serial, parallel):
        assert parallel.rows_total == serial.rows_total
        assert parallel.rows_off == serial.rows_off

    def test_each_distinct_run_simulated_once(self, serial, parallel):
        """Misses summed over the records count the distinct runs: no
        worker re-simulates a run another one made."""
        assert serial.cache_misses == 4  # baseline + three disk configs
        assert parallel.cache_misses == serial.cache_misses
