"""Failure-injection tests: the system degrades gracefully, never corrupts.

Each scenario injects a fault mid-flow — quota exhaustion, concurrent
interference, tables vanishing between observe and act — and checks that
AutoComp reports the failure without corrupting table or storage state.
"""

from __future__ import annotations

import pytest

from repro.catalog import Catalog
from repro.core import (
    LstConnector,
    LstExecutionBackend,
    SequentialScheduler,
    TopKSelector,
    WeightedSumPolicy,
    Objective,
)
from repro.core.pipeline import AutoCompPipeline
from repro.core.traits import ComputeCostTrait, FileCountReductionTrait
from repro.engine import Cluster, EngineSession, MisconfiguredShuffleWriter
from repro.errors import NoSuchTableError, QuotaExceededError
from repro.units import GiB, MiB

from tests.conftest import fragment_table


def _pipeline(catalog, k=10):
    connector = LstConnector(catalog)
    return AutoCompPipeline(
        connector=connector,
        backend=LstExecutionBackend(connector, Cluster("m", executors=2)),
        traits=[
            FileCountReductionTrait(),
            ComputeCostTrait(executor_memory_gb=64.0, rewrite_bytes_per_hour=1 * GiB),
        ],
        policy=WeightedSumPolicy(
            [
                Objective("file_count_reduction", 0.7, maximize=True),
                Objective("compute_cost_gbhr", 0.3, maximize=False),
            ]
        ),
        selector=TopKSelector(k),
        scheduler=SequentialScheduler(),
        telemetry=catalog.telemetry,
    )


class TestQuotaExhaustion:
    def test_write_fails_cleanly_at_quota(self, simple_schema):
        catalog = Catalog()
        catalog.create_database("tight", quota_objects=40)
        table = catalog.create_table("tight.t", simple_schema)
        session = EngineSession(
            Cluster("q", executors=2), telemetry=catalog.telemetry, clock=catalog.clock
        )
        with pytest.raises(QuotaExceededError):
            # 64 files + metadata cannot fit in a 40-object quota.
            session.write(table, 64 * MiB, MisconfiguredShuffleWriter(64))
        # The namespace never exceeds its quota.
        used, limit = catalog.fs.quota_usage("/data/tight")
        assert used <= limit

    def test_compaction_frees_quota_headroom(self, simple_schema):
        from repro.catalog import TablePolicy

        catalog = Catalog()
        catalog.create_database("tight", quota_objects=220)
        # Zero retention: replaced files are physically deleted right after
        # the rewrite (the default 3-day window would hold them).
        table = catalog.create_table(
            "tight.t", simple_schema, policy=TablePolicy(snapshot_retention_s=0.0)
        )
        session = EngineSession(
            Cluster("q", executors=2), telemetry=catalog.telemetry, clock=catalog.clock
        )
        session.write(table, 64 * MiB, MisconfiguredShuffleWriter(48))
        used_before, _ = catalog.fs.quota_usage("/data/tight")

        pipeline = _pipeline(catalog)
        report = pipeline.run_cycle(now=catalog.clock.now)
        assert report.successes == 1
        used_after, _ = catalog.fs.quota_usage("/data/tight")
        assert used_after < used_before


class TestVanishingTables:
    def test_table_dropped_between_observe_and_act(self, catalog, simple_schema):
        """A backend that hits a dropped table surfaces the error rather
        than corrupting the cycle — the filter/act race every control
        plane has."""
        catalog.create_database("db")
        table = catalog.create_table("db.doomed", simple_schema)
        fragment_table(table, partitions=[()], files_per_partition=8)

        connector = LstConnector(catalog)
        backend = LstExecutionBackend(connector, Cluster("m", executors=2))

        class DroppingConnector(LstConnector):
            def observe(self, keys):
                candidates = super().observe(keys)
                catalog.drop_table("db.doomed")  # rug pull after observe
                return candidates

        pipeline = AutoCompPipeline(
            connector=DroppingConnector(catalog),
            backend=backend,
            traits=[FileCountReductionTrait()],
            policy=WeightedSumPolicy([Objective("file_count_reduction", 1.0)]),
            selector=TopKSelector(5),
            scheduler=SequentialScheduler(),
        )
        with pytest.raises(NoSuchTableError):
            pipeline.run_cycle(now=0.0)
        # Catalog state is consistent: the table is gone, nothing dangling.
        assert catalog.list_tables("db") == []


class TestConflictStorm:
    def test_pipeline_survives_all_jobs_conflicting(self, catalog, simple_schema, monthly_spec):
        """Every compaction racing a user write: wasted GBHr is reported,
        tables keep every byte."""
        catalog.create_database("db")
        table = catalog.create_table("db.t", simple_schema, spec=monthly_spec)
        fragment_table(table, partitions=[(0,), (1,)], files_per_partition=8)
        bytes_before = table.total_data_bytes

        connector = LstConnector(catalog)
        real_backend = LstExecutionBackend(connector, Cluster("m", executors=2))

        class SabotagingBackend(LstExecutionBackend):
            def prepare(self, task):
                job = real_backend.prepare(task)
                if job is None:
                    return None
                original_start = job.start

                def start_and_interfere():
                    duration = original_start()
                    txn = table.new_append()
                    txn.add_file(MiB, partition=(0,))
                    txn.commit()  # lands inside the job's window
                    return duration

                job.start = start_and_interfere
                return job

        pipeline = AutoCompPipeline(
            connector=connector,
            backend=SabotagingBackend(connector, Cluster("m", executors=2)),
            traits=[FileCountReductionTrait()],
            policy=WeightedSumPolicy([Objective("file_count_reduction", 1.0)]),
            selector=TopKSelector(5),
            scheduler=SequentialScheduler(),
            telemetry=catalog.telemetry,
        )
        report = pipeline.run_cycle(now=0.0)
        assert report.successes == 0
        assert report.conflicts == 1
        assert report.total_gbhr > 0  # wasted work is accounted
        # No data lost: original bytes plus the interfering appends.
        assert table.total_data_bytes >= bytes_before
        assert catalog.telemetry.counter("autocomp.results.conflict") == 1


class TestEmptyWorlds:
    def test_pipeline_on_empty_catalog(self, catalog):
        report = _pipeline(catalog).run_cycle(now=0.0)
        assert report.candidates_generated == 0
        assert report.results == []

    def test_pipeline_on_catalog_of_empty_tables(self, catalog, simple_schema):
        catalog.create_database("db")
        for i in range(3):
            catalog.create_table(f"db.empty{i}", simple_schema)
        report = _pipeline(catalog).run_cycle(now=0.0)
        assert report.successes == 0
        assert all(r.skipped for r in report.results)
