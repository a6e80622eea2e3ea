"""Tests for act-phase backends and schedulers."""

from __future__ import annotations

import pytest

from repro.core import (
    Candidate,
    CandidateKey,
    CandidateScope,
    CompactionTask,
    ConcurrentScheduler,
    LstConnector,
    LstExecutionBackend,
    OffPeakScheduler,
    ParallelScheduler,
    SequentialScheduler,
)
from repro.engine import Cluster
from repro.errors import SchedulingError, ValidationError
from repro.simulation import Simulator
from repro.units import HOUR, MiB

from tests.conftest import fragment_table


@pytest.fixture
def world(catalog, simple_schema, monthly_spec):
    catalog.create_database("db")
    table_a = catalog.create_table("db.a", simple_schema, spec=monthly_spec)
    table_b = catalog.create_table("db.b", simple_schema, spec=monthly_spec)
    fragment_table(table_a, partitions=[(0,), (1,)], files_per_partition=6)
    fragment_table(table_b, partitions=[(0,)], files_per_partition=6)
    connector = LstConnector(catalog)
    backend = LstExecutionBackend(connector, Cluster("maint", executors=3))
    return catalog, connector, backend, table_a, table_b


def _table_task(db, name):
    return CompactionTask(
        candidate=Candidate(key=CandidateKey(db, name, CandidateScope.TABLE))
    )


def _partition_task(db, name, partition):
    return CompactionTask(
        candidate=Candidate(
            key=CandidateKey(db, name, CandidateScope.PARTITION, partition=partition)
        )
    )


class TestBackend:
    def test_prepare_table_scope(self, world):
        _, _, backend, table_a, _ = world
        job = backend.prepare(_table_task("db", "a"))
        assert job is not None
        duration = job.start()
        assert duration > 0
        result = job.finish()
        assert result.success
        assert result.actual_reduction == 10  # 12 files -> 2 (one per partition)

    def test_prepare_partition_scope(self, world):
        _, _, backend, table_a, _ = world
        job = backend.prepare(_partition_task("db", "a", (0,)))
        job.start()
        result = job.finish()
        assert result.success
        assert table_a.data_file_count == 7  # partition 0 merged to 1

    def test_prepare_empty_plan_returns_none(self, world):
        catalog, _, backend, *_ = world
        catalog.create_table("db.empty", catalog.load_table("db.a").schema)
        assert backend.prepare(_table_task("db", "empty")) is None


class TestSequentialSyncMode:
    def test_results_returned_in_order(self, world):
        _, _, backend, *_ = world
        tasks = [_table_task("db", "a"), _table_task("db", "b")]
        results = SequentialScheduler().schedule(tasks, backend)
        assert [str(r.candidate) for r in results] == ["db.a", "db.b"]
        assert all(r.success for r in results)

    def test_skipped_tasks_reported(self, world):
        catalog, _, backend, *_ = world
        catalog.create_table("db.empty", catalog.load_table("db.a").schema)
        results = SequentialScheduler().schedule([_table_task("db", "empty")], backend)
        assert len(results) == 1
        assert results[0].skipped

    def test_on_result_callback(self, world):
        _, _, backend, *_ = world
        seen = []
        SequentialScheduler().schedule(
            [_table_task("db", "a")], backend, on_result=seen.append
        )
        assert len(seen) == 1


class TestSyncModeOrder:
    """Without a simulator every scheduler runs one path: priority order."""

    @pytest.mark.parametrize(
        "scheduler",
        [
            SequentialScheduler(),
            ParallelScheduler(),
            ConcurrentScheduler(),
            ConcurrentScheduler(table_serial=True),
        ],
        ids=["sequential", "parallel", "concurrent", "concurrent-table-serial"],
    )
    def test_results_and_callbacks_follow_priority_order(self, world, scheduler):
        _, _, backend, *_ = world
        # Two tables and two partitions interleaved: grouping by table or
        # by partition would each reorder these.
        tasks = [
            _partition_task("db", "a", (0,)),
            _partition_task("db", "b", (0,)),
            _partition_task("db", "a", (1,)),
            _partition_task("db", "b", (0,)),
        ]
        seen = []
        results = scheduler.schedule(tasks, backend, on_result=seen.append)
        expected = [task.candidate.key for task in tasks]
        assert [r.candidate for r in results] == expected
        assert [r.candidate for r in seen] == expected
        # The repeated partition has nothing left to rewrite.
        assert [r.skipped for r in results] == [False, False, False, True]


class TestSimulatorMode:
    def test_sequential_chains_jobs(self, world):
        catalog, _, backend, *_ = world
        simulator = Simulator(catalog.clock)
        results = []
        out = SequentialScheduler().schedule(
            [_table_task("db", "a"), _table_task("db", "b")],
            backend,
            simulator=simulator,
            on_result=results.append,
        )
        assert out == []  # async mode
        simulator.run()
        assert len(results) == 2
        # Job 2 starts only after job 1 finishes.
        assert results[1].started_at >= results[0].finished_at
        assert all(r.success for r in results)

    def test_parallel_rewrites_conflict_on_iceberg(self, world):
        """Two concurrent table rewrites: the second hits the v1.2.0 quirk."""
        catalog, _, backend, *_ = world
        simulator = Simulator(catalog.clock)
        results = []
        ParallelScheduler().schedule(
            [_table_task("db", "a"), _table_task("db", "b")],
            backend,
            simulator=simulator,
            on_result=results.append,
        )
        simulator.run()
        assert len(results) == 2
        # Different tables: both succeed (quirk is per-table).
        assert all(r.success for r in results)

    def test_parallel_partitions_same_table_conflict(self, world):
        """Distinct partitions of ONE table rewritten concurrently: the
        second commit aborts (cluster-side) — the paper's §4.4 finding."""
        catalog, _, backend, table_a, _ = world
        simulator = Simulator(catalog.clock)
        results = []
        ParallelScheduler().schedule(
            [_partition_task("db", "a", (0,)), _partition_task("db", "a", (1,))],
            backend,
            simulator=simulator,
            on_result=results.append,
        )
        simulator.run()
        outcomes = sorted((r.success for r in results))
        assert outcomes == [False, True]
        conflicted = next(r for r in results if not r.success)
        assert conflicted.conflict_reason is not None

    def test_partition_serial_avoids_conflicts(self, world):
        """The hybrid scheduler: same-table partitions run back-to-back."""
        catalog, _, backend, table_a, _ = world
        simulator = Simulator(catalog.clock)
        results = []
        ConcurrentScheduler(table_serial=True).schedule(
            [_partition_task("db", "a", (0,)), _partition_task("db", "a", (1,))],
            backend,
            simulator=simulator,
            on_result=results.append,
        )
        simulator.run()
        assert all(r.success for r in results)
        assert table_a.data_file_count == 2

    def test_partition_serial_parallel_across_tables(self, world):
        catalog, _, backend, *_ = world
        simulator = Simulator(catalog.clock)
        results = []
        ConcurrentScheduler(table_serial=True).schedule(
            [_partition_task("db", "a", (0,)), _table_task("db", "b")],
            backend,
            simulator=simulator,
            on_result=results.append,
        )
        simulator.run()
        # Both started at t=0 (no chaining across tables).
        assert all(r.started_at == 0.0 for r in results)


class TestOffPeakScheduler:
    def test_requires_simulator(self, world):
        _, _, backend, *_ = world
        scheduler = OffPeakScheduler(SequentialScheduler())
        with pytest.raises(SchedulingError):
            scheduler.schedule([_table_task("db", "a")], backend)

    def test_defers_to_window(self, world):
        catalog, _, backend, *_ = world
        simulator = Simulator(catalog.clock)
        scheduler = OffPeakScheduler(
            SequentialScheduler(), window_start_hour=2.0, window_end_hour=4.0
        )
        results = []
        scheduler.schedule(
            [_table_task("db", "a")], backend, simulator=simulator, on_result=results.append
        )
        simulator.run()
        assert len(results) == 1
        assert results[0].started_at >= 2 * HOUR

    def test_inside_window_runs_now(self, world):
        catalog, _, backend, *_ = world
        catalog.clock.advance_to(3 * HOUR)
        simulator = Simulator(catalog.clock)
        scheduler = OffPeakScheduler(
            SequentialScheduler(), window_start_hour=2.0, window_end_hour=4.0
        )
        results = []
        scheduler.schedule(
            [_table_task("db", "a")], backend, simulator=simulator, on_result=results.append
        )
        simulator.run()
        assert results[0].started_at == 3 * HOUR

    def test_wrapping_window(self):
        scheduler = OffPeakScheduler(
            SequentialScheduler(), window_start_hour=22.0, window_end_hour=2.0
        )
        assert scheduler.seconds_until_window(23 * HOUR) == 0.0
        assert scheduler.seconds_until_window(1 * HOUR) == 0.0
        assert scheduler.seconds_until_window(3 * HOUR) == 19 * HOUR


class TestTaskFromCandidate:
    def test_estimates_pulled_from_traits(self):
        candidate = Candidate(key=CandidateKey("db", "t", CandidateScope.TABLE))
        candidate.traits["compute_cost_gbhr"] = 12.0
        candidate.traits["file_count_reduction"] = 80.0
        task = CompactionTask.from_candidate(candidate)
        assert task.estimated_gbhr == 12.0
        assert task.estimated_reduction == 80.0

    def test_defaults_when_traits_absent(self):
        candidate = Candidate(key=CandidateKey("db", "t", CandidateScope.TABLE))
        task = CompactionTask.from_candidate(candidate)
        assert task.estimated_gbhr == 0.0


class TestConcurrentScheduler:
    """Scale-out act phase: independent chains in parallel, ordering kept."""

    def _partitioned_world(self, catalog, simple_schema, monthly_spec):
        table = catalog.create_table("db.wide", simple_schema, spec=monthly_spec)
        fragment_table(table, partitions=[(0,), (1,), (2,)], files_per_partition=6)
        connector = LstConnector(catalog)
        backend = LstExecutionBackend(connector, Cluster("maint", executors=6))
        return table, backend

    def test_sync_mode_without_workers_matches_sequential(self, world):
        _, _, backend, *_ = world
        tasks = [_table_task("db", "a"), _table_task("db", "b")]
        results = ConcurrentScheduler().schedule(tasks, backend)
        assert [str(r.candidate) for r in results] == ["db.a", "db.b"]
        assert all(r.success for r in results)

    def test_independent_chains_overlap_in_time(self, world):
        catalog, _, backend, *_ = world
        simulator = Simulator(catalog.clock)
        tasks = [_table_task("db", "a"), _table_task("db", "b")]
        results = []
        out = ConcurrentScheduler().schedule(
            tasks, backend, simulator=simulator, on_result=results.append
        )
        assert out == []
        simulator.run()
        assert len(results) == 2 and all(r.success for r in results)
        # Both chains started at t=0: independent tables run concurrently.
        assert {r.started_at for r in results} == {0.0}

    def test_same_partition_tasks_stay_ordered(
        self, catalog, simple_schema, monthly_spec
    ):
        catalog.create_database("db")
        table, backend = self._partitioned_world(catalog, simple_schema, monthly_spec)
        simulator = Simulator(catalog.clock)
        tasks = [
            _partition_task("db", "wide", (0,)),
            _partition_task("db", "wide", (0,)),
            _partition_task("db", "wide", (1,)),
        ]
        results = []
        ConcurrentScheduler().schedule(
            tasks, backend, simulator=simulator, on_result=results.append
        )
        simulator.run()
        same_partition = [r for r in results if r.candidate.partition == (0,)]
        assert same_partition[1].started_at >= same_partition[0].finished_at

    def test_max_parallelism_caps_concurrent_chains(
        self, catalog, simple_schema, monthly_spec
    ):
        catalog.create_database("db")
        _, backend = self._partitioned_world(catalog, simple_schema, monthly_spec)
        simulator = Simulator(catalog.clock)
        tasks = [_partition_task("db", "wide", (p,)) for p in (0, 1, 2)]
        results = []
        ConcurrentScheduler(max_parallelism=1).schedule(
            tasks, backend, simulator=simulator, on_result=results.append
        )
        simulator.run()
        assert len(results) == 3
        # With one slot the chains run back-to-back, like SequentialScheduler.
        ordered = sorted(results, key=lambda r: r.started_at)
        assert ordered[1].started_at >= ordered[0].finished_at
        assert ordered[2].started_at >= ordered[1].finished_at

    def test_table_serial_chains_by_table(self):
        scheduler = ConcurrentScheduler(table_serial=True)
        tasks = [
            _partition_task("db", "t", (0,)),
            _partition_task("db", "t", (1,)),
            _table_task("db", "u"),
        ]
        chains = scheduler._chains(tasks)
        assert [len(chain) for chain in chains] == [2, 1]

    def test_partition_chaining_by_default(self):
        scheduler = ConcurrentScheduler()
        tasks = [
            _partition_task("db", "t", (0,)),
            _partition_task("db", "t", (1,)),
            _partition_task("db", "t", (0,)),
        ]
        chains = scheduler._chains(tasks)
        assert [len(chain) for chain in chains] == [2, 1]

    def test_validation(self):
        with pytest.raises(ValidationError):
            ConcurrentScheduler(max_parallelism=0)


    def test_table_scope_task_serialises_with_partition_tasks(self):
        """A table-scope task touches every partition: it must never share
        a concurrency window with partition tasks of the same table."""
        scheduler = ConcurrentScheduler()
        tasks = [
            _partition_task("db", "t", (0,)),
            _table_task("db", "t"),
            _partition_task("db", "t", (1,)),
            _partition_task("db", "u", (0,)),
        ]
        chains = scheduler._chains(tasks)
        assert [len(chain) for chain in chains] == [3, 1]  # db.t collapsed


    def test_thousands_of_skipped_chains_do_not_overflow_the_stack(
        self, catalog
    ):
        """All-skipped chains complete synchronously; the capped launcher
        must iterate, not recurse, through them."""
        from repro.core.scheduling import ExecutionBackend

        class EmptyPlans(ExecutionBackend):
            def prepare(self, task):
                return None

        simulator = Simulator(catalog.clock)
        tasks = [_table_task("db", f"t{i}") for i in range(3000)]
        results = []
        ConcurrentScheduler(max_parallelism=1).schedule(
            tasks, EmptyPlans(), simulator=simulator, on_result=results.append
        )
        simulator.run()
        assert len(results) == 3000
        assert all(r.skipped for r in results)
