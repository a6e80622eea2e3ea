"""Tests for the OODA pipeline end to end."""

from __future__ import annotations

import pytest

from repro.core import (
    AutoCompPipeline,
    LstConnector,
    LstExecutionBackend,
    MinSmallFileCountFilter,
    MinTableAgeFilter,
    Objective,
    SequentialScheduler,
    TopKSelector,
    WeightedSumPolicy,
)
from repro.core.traits import (
    ComputeCostTrait,
    FileCountReductionTrait,
    TraitRegistry,
)
from repro.engine import Cluster
from repro.units import GiB, HOUR, MiB

from tests.conftest import fragment_table


def _make_pipeline(catalog, generation="table", k=10, stats_filters=(), hooks=()):
    connector = LstConnector(catalog)
    cluster = Cluster("maint", executors=3)
    backend = LstExecutionBackend(connector, cluster)
    traits = TraitRegistry(
        [
            FileCountReductionTrait(),
            ComputeCostTrait(executor_memory_gb=192.0, rewrite_bytes_per_hour=1 * GiB),
        ]
    )
    policy = WeightedSumPolicy(
        [
            Objective("file_count_reduction", 0.7, maximize=True),
            Objective("compute_cost_gbhr", 0.3, maximize=False),
        ]
    )
    return AutoCompPipeline(
        connector=connector,
        backend=backend,
        traits=traits,
        policy=policy,
        selector=TopKSelector(k),
        scheduler=SequentialScheduler(),
        generation=generation,
        stats_filters=list(stats_filters),
        telemetry=catalog.telemetry,
        feedback_hooks=list(hooks),
    )


@pytest.fixture
def fragmented_catalog(catalog, simple_schema, monthly_spec):
    catalog.create_database("db")
    for i, count in enumerate([20, 5, 0]):
        table = catalog.create_table(f"db.t{i}", simple_schema, spec=monthly_spec)
        if count:
            fragment_table(table, partitions=[(0,)], files_per_partition=count)
    return catalog


class TestRunCycle:
    def test_full_ooda_pass(self, fragmented_catalog):
        pipeline = _make_pipeline(fragmented_catalog)
        report = pipeline.run_cycle(now=HOUR)
        assert report.candidates_generated == 3
        assert report.after_stats_filters == 3
        assert report.ranked == 3
        assert len(report.selected) == 3
        # t2 is empty: its plan is skipped; t0 and t1 compact.
        assert report.successes == 2
        assert report.total_files_reduced == (20 - 1) + (5 - 1)

    def test_priority_order_matches_benefit(self, fragmented_catalog):
        pipeline = _make_pipeline(fragmented_catalog, k=1)
        report = pipeline.run_cycle(now=HOUR)
        assert [str(k) for k in report.selected] == ["db.t0"]

    def test_stats_filters_reduce_pool(self, fragmented_catalog):
        pipeline = _make_pipeline(
            fragmented_catalog, stats_filters=[MinSmallFileCountFilter(10)]
        )
        report = pipeline.run_cycle(now=HOUR)
        assert report.after_stats_filters == 1

    def test_age_filter_uses_now(self, fragmented_catalog):
        pipeline = _make_pipeline(
            fragmented_catalog, stats_filters=[MinTableAgeFilter(HOUR)]
        )
        early = pipeline.run_cycle(now=60.0)
        assert early.after_stats_filters == 0
        late = pipeline.run_cycle(now=2 * HOUR)
        assert late.after_stats_filters == 3

    def test_cycle_report_totals(self, fragmented_catalog):
        pipeline = _make_pipeline(fragmented_catalog)
        report = pipeline.run_cycle(now=HOUR)
        assert report.total_gbhr > 0
        assert report.conflicts == 0

    def test_telemetry_recorded(self, fragmented_catalog):
        pipeline = _make_pipeline(fragmented_catalog)
        pipeline.run_cycle(now=HOUR)
        telemetry = fragmented_catalog.telemetry
        assert telemetry.counter("autocomp.cycles") == 1
        assert telemetry.counter("autocomp.results.success") == 2
        assert telemetry.counter("autocomp.results.skipped") == 1
        assert telemetry.series("autocomp.cycle.candidates").last() == 3

    def test_feedback_hooks_invoked(self, fragmented_catalog):
        seen = []
        pipeline = _make_pipeline(fragmented_catalog, hooks=[seen.append])
        pipeline.run_cycle(now=HOUR)
        assert len(seen) == 1
        assert seen[0].cycle_index == 0

    def test_cycle_index_increments(self, fragmented_catalog):
        pipeline = _make_pipeline(fragmented_catalog)
        assert pipeline.run_cycle(now=HOUR).cycle_index == 0
        assert pipeline.run_cycle(now=2 * HOUR).cycle_index == 1

    def test_second_cycle_finds_nothing_new(self, fragmented_catalog):
        """After a clean first cycle there is nothing left to compact —
        the diminishing-returns effect of §2."""
        pipeline = _make_pipeline(fragmented_catalog)
        first = pipeline.run_cycle(now=HOUR)
        second = pipeline.run_cycle(now=2 * HOUR)
        assert first.total_files_reduced > 0
        assert second.total_files_reduced == 0

    def test_hybrid_generation(self, fragmented_catalog, simple_schema):
        pipeline = _make_pipeline(fragmented_catalog, generation="hybrid")
        report = pipeline.run_cycle(now=HOUR)
        # Partitioned tables contribute partition-scope candidates.
        assert any(k.partition is not None for k in report.selected)

    def test_trait_list_accepted(self, fragmented_catalog):
        connector = LstConnector(fragmented_catalog)
        backend = LstExecutionBackend(connector, Cluster("m", executors=2))
        pipeline = AutoCompPipeline(
            connector=connector,
            backend=backend,
            traits=[FileCountReductionTrait()],
            policy=WeightedSumPolicy([Objective("file_count_reduction", 1.0)]),
            selector=TopKSelector(5),
            scheduler=SequentialScheduler(),
        )
        report = pipeline.run_cycle(now=HOUR)
        assert report.successes == 2


class TestDeterminism:
    def test_identical_inputs_identical_decisions(self, simple_schema, monthly_spec):
        """NFR2: same state in, same selection out."""
        from repro.catalog import Catalog

        def build():
            catalog = Catalog()
            catalog.create_database("db")
            for i, count in enumerate([12, 7, 3]):
                table = catalog.create_table(f"db.t{i}", simple_schema, spec=monthly_spec)
                fragment_table(table, partitions=[(0,)], files_per_partition=count)
            return _make_pipeline(catalog)

        first = build().run_cycle(now=HOUR)
        second = build().run_cycle(now=HOUR)
        assert [str(k) for k in first.selected] == [str(k) for k in second.selected]
        assert first.total_files_reduced == second.total_files_reduced
