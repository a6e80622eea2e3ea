"""Tests for the AutoComp service and the OpenHouse reference wiring."""

from __future__ import annotations

import threading

import pytest

from repro.core import AutoCompService, BudgetSelector, TopKSelector, openhouse_pipeline
from repro.core.candidates import CandidateKey, CandidateScope
from repro.core.scheduling import ConcurrentScheduler, SequentialScheduler
from repro.engine import Cluster
from repro.errors import ValidationError
from repro.simulation import Simulator
from repro.units import HOUR

from tests.conftest import fragment_table


@pytest.fixture
def fleet_catalog(catalog, simple_schema, monthly_spec):
    catalog.create_database("db", quota_objects=100_000)
    for i, count in enumerate([15, 8, 2]):
        table = catalog.create_table(f"db.t{i}", simple_schema, spec=monthly_spec)
        fragment_table(table, partitions=[(0,)], files_per_partition=count)
    catalog.clock.advance_by(2 * HOUR)  # age past the recent-table filter
    return catalog


class TestOpenhousePipeline:
    def test_default_wiring(self, fleet_catalog):
        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        assert isinstance(pipeline.selector, TopKSelector)
        assert isinstance(pipeline.scheduler, SequentialScheduler)
        assert set(pipeline.traits.names()) == {
            "file_count_reduction",
            "file_entropy",
            "compute_cost_gbhr",
        }

    def test_runs_and_compacts(self, fleet_catalog):
        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        report = pipeline.run_cycle(now=fleet_catalog.clock.now)
        # All three tables pass the >=2-small-files filter; each partition
        # packs down to one file.
        assert report.successes == 3
        assert report.total_files_reduced == 14 + 7 + 1

    def test_hybrid_uses_partition_serial_scheduler(self, fleet_catalog):
        pipeline = openhouse_pipeline(
            fleet_catalog, Cluster("maint", executors=3), generation="hybrid"
        )
        assert isinstance(pipeline.scheduler, ConcurrentScheduler)
        assert pipeline.scheduler.table_serial
        assert pipeline.scheduler.max_parallelism is None

    def test_budget_mode(self, fleet_catalog):
        pipeline = openhouse_pipeline(
            fleet_catalog, Cluster("maint", executors=3), budget_gbhr=1000.0
        )
        assert isinstance(pipeline.selector, BudgetSelector)

    def test_weight_validation(self, fleet_catalog):
        with pytest.raises(ValidationError):
            openhouse_pipeline(
                fleet_catalog, Cluster("m", executors=1), benefit_weight=1.5
            )
        with pytest.raises(ValidationError):
            openhouse_pipeline(
                fleet_catalog, Cluster("m", executors=1), k=None, budget_gbhr=None
            )

    def test_min_small_files_filter(self, fleet_catalog):
        pipeline = openhouse_pipeline(
            fleet_catalog, Cluster("maint", executors=3), min_small_files=10
        )
        report = pipeline.run_cycle(now=fleet_catalog.clock.now)
        assert report.after_stats_filters == 1


class TestAutoCompService:
    def test_manual_cycle(self, fleet_catalog):
        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        service = AutoCompService(pipeline, interval_s=HOUR)
        report = service.run_cycle(now=fleet_catalog.clock.now)
        assert report.successes == 3
        assert service.reports == [report]

    def test_periodic_attachment(self, fleet_catalog):
        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        service = AutoCompService(pipeline, interval_s=HOUR)
        simulator = Simulator(fleet_catalog.clock)
        service.attach(simulator, until=fleet_catalog.clock.now + 3 * HOUR)
        simulator.run_until(fleet_catalog.clock.now + 4 * HOUR)
        assert len(service.reports) >= 2

    def test_notification_inbox(self, fleet_catalog):
        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        service = AutoCompService(pipeline)
        key = CandidateKey("db", "t0", CandidateScope.TABLE)
        service.notify(key)
        assert service.notifications == [key]
        service.run_cycle(now=fleet_catalog.clock.now)
        assert service.notifications == []  # drained by the cycle


class TestNotificationRouting:
    """Inbox → connector routing, including the sharded-pipeline regression."""

    def test_notify_through_sharded_pipeline(self, fleet_catalog):
        """Regression: run_cycle used to crash with AttributeError because
        ShardedPipeline has no single ``connector`` to invalidate."""
        from repro.core.service import openhouse_sharded_pipeline
        from repro.core.statscache import IndexedCandidateCache

        pipeline = openhouse_sharded_pipeline(
            fleet_catalog,
            Cluster("maint", executors=3),
            n_shards=2,
            stats_cache=IndexedCandidateCache(),
            k=5,
        )
        with pipeline:
            service = AutoCompService(pipeline)
            key = CandidateKey("db", "t0", CandidateScope.TABLE)
            service.notify(key)
            report = service.run_cycle(now=fleet_catalog.clock.now)
        assert service.notifications == []
        assert report.report.candidates_generated == 3

    def test_sharded_invalidate_routes_to_owning_shard(self, fleet_catalog):
        """Each key's eviction lands on the shard the consistent hash owns."""
        from repro.core.sharding import ShardedPipeline, shard_for_key
        from repro.core.statscache import IndexedCandidateCache

        def shard():
            pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
            pipeline.connector.stats_cache = IndexedCandidateCache()
            return pipeline

        shards = [shard(), shard()]
        pipeline = ShardedPipeline(shards, max_workers=1)
        with pipeline:
            for i in range(3):
                key = CandidateKey("db", f"t{i}", CandidateScope.TABLE)
                owner = shard_for_key(key, 2)
                shards[owner].connector.observe([key])
                before = [s.connector.stats_cache.invalidations for s in shards]
                pipeline.invalidate(key)
                after = [s.connector.stats_cache.invalidations for s in shards]
                # Exactly the owner's cache dropped the (cached) entry.
                assert after[owner] == before[owner] + 1
                assert after[1 - owner] == before[1 - owner]

    def test_inbox_deduped_preserving_first_seen_order(self, fleet_catalog):
        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        drained: list[CandidateKey] = []
        pipeline.invalidate = drained.append  # shadow the bound method
        service = AutoCompService(pipeline)
        first = CandidateKey("db", "t0", CandidateScope.TABLE)
        second = CandidateKey("db", "t1", CandidateScope.TABLE)
        for key in (first, first, second, first, second):
            service.notify(key)
        service.run_cycle(now=fleet_catalog.clock.now)
        assert drained == [first, second]
        assert service.notifications == []


class TestInboxThreadSafety:
    """Regression: notify() racing run_cycle's drain lost or double-drained keys."""

    def test_hammered_inbox_loses_nothing(self, fleet_catalog):
        from repro.core.pipeline import CycleReport

        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        drained: list[CandidateKey] = []
        pipeline.invalidate = drained.append  # shadow the bound method
        pipeline.run_cycle = lambda now=0.0, simulator=None: CycleReport(
            cycle_index=0, started_at=now
        )
        service = AutoCompService(pipeline)

        n_threads, keys_per_thread = 8, 200
        start = threading.Barrier(n_threads + 1)

        def hammer(thread_index: int) -> None:
            start.wait()
            for i in range(keys_per_thread):
                service.notify(
                    CandidateKey("db", f"w{thread_index}_{i}", CandidateScope.TABLE)
                )

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        # Drain concurrently with the producers: the old list-clear drain
        # dropped whatever arrived between the iteration and the clear.
        for _ in range(50):
            service.run_cycle(now=fleet_catalog.clock.now)
        for thread in threads:
            thread.join()
        service.run_cycle(now=fleet_catalog.clock.now)  # final sweep

        expected = {
            f"db.w{t}_{i}" for t in range(n_threads) for i in range(keys_per_thread)
        }
        drained_keys = [str(key) for key in drained]
        assert set(drained_keys) == expected  # nothing lost
        assert len(drained_keys) == len(expected)  # nothing double-invalidated
        assert service.notifications == []


class TestScheduleAnchoring:
    """Regression: attach() fired on a fixed grid and could overlap itself."""

    def test_next_fire_anchors_to_cycle_completion(self, fleet_catalog):
        from repro.core.pipeline import CycleReport

        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        long_cycle_s = HOUR / 2

        def slow_cycle(now=0.0, simulator=None):
            # A cycle that takes half an hour of simulated time.
            if simulator is not None:
                now = simulator.now
            fleet_catalog.clock.advance_by(long_cycle_s)
            return CycleReport(cycle_index=0, started_at=now)

        pipeline.run_cycle = slow_cycle
        service = AutoCompService(pipeline, interval_s=HOUR)
        simulator = Simulator(fleet_catalog.clock)
        base = fleet_catalog.clock.now
        service.attach(simulator, until=base + 5 * HOUR)
        simulator.run_until(base + 5 * HOUR)
        starts = [report.started_at for report in service.reports]
        # Completion-anchored: fires at base+1h, then every 1.5h (1h interval
        # after each 0.5h cycle) — not on the fixed 1h grid.
        assert starts[0] == base + HOUR
        spacings = [b - a for a, b in zip(starts, starts[1:])]
        assert spacings and all(s == HOUR + long_cycle_s for s in spacings)

    def test_overlapping_fire_skips_and_counts(self, fleet_catalog):
        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        service = AutoCompService(pipeline, interval_s=HOUR)
        # Forge an unfinished cycle: selected work whose results are still
        # outstanding (async act in flight).
        stuck = pipeline.begin_cycle(fleet_catalog.clock.now)
        stuck.selected = [CandidateKey("db", "t0", CandidateScope.TABLE)]
        service.reports.append(stuck)
        assert service.cycle_in_flight()

        simulator = Simulator(fleet_catalog.clock)
        base = fleet_catalog.clock.now
        service.attach(simulator, until=base + 3 * HOUR)
        simulator.run_until(base + 4 * HOUR)
        # Fires at +1h and +2h (the +3h one falls at `until`): both skip.
        assert service.overlap_skips == 2
        assert service.reports == [stuck]
        assert (
            pipeline.telemetry.counter("autocomp.service.overlap_skips") == 2
        )

    def test_until_still_bounds_scheduling(self, fleet_catalog):
        pipeline = openhouse_pipeline(fleet_catalog, Cluster("maint", executors=3))
        service = AutoCompService(pipeline, interval_s=HOUR)
        simulator = Simulator(fleet_catalog.clock)
        base = fleet_catalog.clock.now
        service.attach(simulator, until=base + 2.5 * HOUR)
        simulator.run_until(base + 10 * HOUR)
        assert len(service.reports) == 2  # fires at +1h and +2h only
