"""Tests for the shard worker subsystem (process-boundary contracts)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import (
    Candidate,
    CandidateKey,
    CandidateScope,
    CandidateStatistics,
    ComputeCostTrait,
    FileCountReductionTrait,
    IndexedCandidateCache,
    ShardCycleResult,
    ShardedPipeline,
    ShardWorkSpec,
    TraitRegistry,
    WorkerPool,
    run_shard_work,
)
from repro.core.columnar import ColumnarMissBlock
from repro.core.transport import ColumnarTransport
from repro.core.workers import WORK_SPEC_VERSION, burn_cpu
from repro.errors import ValidationError
from repro.fleet import FleetConfig, FleetModel, ShardedAutoCompStrategy
from repro.units import DAY, GiB


def _registry() -> TraitRegistry:
    return TraitRegistry(
        [
            FileCountReductionTrait(),
            ComputeCostTrait(executor_memory_gb=192.0, rewrite_bytes_per_hour=768 * GiB),
        ]
    )


def _spec(n: int = 3, observe_cost: int = 0) -> ShardWorkSpec:
    keys = tuple(
        CandidateKey("db", f"table{i:06d}", CandidateScope.TABLE) for i in range(n)
    )
    block = ColumnarMissBlock.from_columns(
        {
            "file_count": [10 + i for i in range(n)],
            "total_bytes": [(10 + i) * 1024 for i in range(n)],
            "small_file_count": [5 + i for i in range(n)],
            "small_file_bytes": [(5 + i) * 512 for i in range(n)],
            "target_file_size": [512] * n,
            "created_at": [0.0] * n,
            "last_modified_at": [float(i) * DAY for i in range(n)],
            "quota_utilization": [0.25] * n,
        },
        n,
    )
    return ShardWorkSpec(
        shard_index=1,
        keys=keys,
        slots=tuple(range(n)),
        tokens=tuple(7 + i for i in range(n)),
        now=2.0 * DAY,
        traits=_registry(),
        block=block,
        observe_cost=observe_cost,
    )


class _Sink:
    """A connector stand-in without a cache."""

    def store_worker_observations(self, delta, candidates) -> None:
        pass


def _observed(spec: ShardWorkSpec, result=None) -> list[Candidate]:
    """The candidates a coordinator rebuilds from a spec's worker result."""
    if result is None:
        result = run_shard_work(spec)
    return ColumnarTransport(_Sink()).merge(spec, [None] * len(spec.keys), result)


class TestWorkerPool:
    def test_rejects_bad_width(self):
        with pytest.raises(ValidationError):
            WorkerPool(0)  # repro-lint: disable=RL006 -- constructor validation raises before any resource is acquired

    def test_executor_persists_across_submissions(self):
        pool = WorkerPool(1)
        try:
            pool.submit(int).result()
            first = pool._executor
            pool.submit(int).result()
            assert pool._executor is first, "pool must be reused, not respawned"
        finally:
            pool.close()
        assert not pool.started
        pool.close()  # idempotent

    def test_process_pool_runs_module_level_work(self):
        spec = _spec()
        with WorkerPool(1) as pool:
            result = pool.submit(run_shard_work, spec).result()
        assert isinstance(result, ShardCycleResult)
        assert result.columnar.matrix.shape == (len(spec.keys), len(spec.traits.names()))


def _after(delay: float, value: int) -> int:
    import time as _time

    _time.sleep(delay)
    return value


class TestProcessPoolDispatch:
    """Process mode: direct pipes, a queue past max_workers, no threads."""

    def test_queued_tasks_return_in_submission_order(self):
        with WorkerPool(2) as pool:
            futures = [
                pool.submit(_after, delay, i)
                for i, delay in enumerate([0.2, 0.0, 0.1, 0.0, 0.05])
            ]
            # Waiting on the last future first still drives every task.
            assert futures[-1].result(timeout=30) == 4
            assert [f.result(timeout=30) for f in futures] == [0, 1, 2, 3, 4]

    def test_killed_worker_fails_its_future(self):
        import multiprocessing
        import os as _os
        import signal
        import time as _time

        from repro.errors import WorkerError

        pool = WorkerPool(1)
        try:
            pid = pool.submit(_os.getpid).result(timeout=30)
            future = pool.submit(_time.sleep, 30)
            _os.kill(pid, signal.SIGKILL)
            started = _time.monotonic()
            with pytest.raises(WorkerError, match="died"):
                future.result(timeout=30)
            assert _time.monotonic() - started < 10.0
            # The dead child was replaced; the pool keeps working.
            assert pool.submit(int, "7").result(timeout=30) == 7
        finally:
            pool.close()
        assert multiprocessing.active_children() == []

    def test_threads_sharing_a_pool_each_get_their_answers(self):
        import sys
        import threading

        results: dict[int, list] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(2) as pool:

                def client(n: int) -> None:
                    futures = [pool.submit(_after, 0.001 * (i % 3), n * 100 + i) for i in range(12)]
                    results[n] = [f.result(timeout=30) for f in futures]

                threads = [threading.Thread(target=client, args=(n,)) for n in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == {n: [n * 100 + i for i in range(12)] for n in range(4)}

    def test_process_cycles_start_no_threads(self):
        import threading

        model = FleetModel(FleetConfig(initial_tables=120, seed=4))
        model.step_day()
        before = threading.active_count()
        with ShardedAutoCompStrategy(
            model, n_shards=2, k=5, selection="local", workers="processes", max_workers=2
        ) as strategy:
            for day in range(2):
                strategy.pipeline.run_cycle(now=day * DAY)
                assert threading.active_count() == before
                model.step_day()


class TestWorkerPoolDrain:
    """Regression: close() mid-flight hung on slow work and orphaned children."""

    def test_timed_close_does_not_wait_for_slow_process_work(self):
        import multiprocessing
        import time as _time

        pool = WorkerPool(2)
        pool.submit(_time.sleep, 30)
        pool.submit(_time.sleep, 30)
        started = _time.monotonic()
        pool.close(timeout=0.3)  # old close would block ~30s
        elapsed = _time.monotonic() - started
        assert elapsed < 10.0
        assert not pool.started
        # Children were terminated and joined, not orphaned to interpreter
        # teardown (where the executor machinery may already be gone).
        assert multiprocessing.active_children() == []
        pool.close(timeout=0.3)  # idempotent

    def test_timed_close_cancels_queued_process_work(self):
        import time as _time

        pool = WorkerPool(1)
        running = pool.submit(_time.sleep, 0.2)
        queued = pool.submit(_time.sleep, 0.2)
        pool.close(timeout=5.0)
        assert running.result(timeout=0) is None
        assert queued.cancelled()

    def test_untimed_close_still_waits(self):
        import time as _time

        pool = WorkerPool(1)
        future = pool.submit(_time.sleep, 0.05)
        pool.close()  # historical behaviour: wait for running work
        assert future.done() and not future.cancelled()


class TestShardWorkContracts:
    def test_spec_validates_column_shape(self):
        spec = _spec()
        with pytest.raises(ValidationError, match="rows"):
            dataclasses.replace(spec, block=_spec(n=1).block)  # 1 row, 3 keys
        with pytest.raises(ValidationError):
            dataclasses.replace(spec, tokens=(1,))  # ragged tokens

    def test_spec_and_result_pickle_round_trip(self):
        spec = _spec()
        thawed = pickle.loads(pickle.dumps(spec))
        assert thawed.keys == spec.keys
        assert thawed.tokens == spec.tokens
        assert thawed.traits.names() == spec.traits.names()
        assert thawed.block.statistics_batch() == spec.block.statistics_batch()
        result = run_shard_work(spec)
        revived = pickle.loads(pickle.dumps(result))
        assert revived.version == WORK_SPEC_VERSION
        assert revived.columnar.trait_names == result.columnar.trait_names
        assert revived.columnar.matrix.tolist() == result.columnar.matrix.tolist()
        assert revived.cache_delta.slots == spec.slots
        assert revived.cache_delta.tokens == spec.tokens

    def test_statistics_pickle_preserves_custom_mapping(self):
        stats = CandidateStatistics(
            file_count=4,
            total_bytes=100,
            small_file_count=2,
            small_file_bytes=40,
            target_file_size=64,
            custom={"scans_per_day": 3.5},
        )
        revived = pickle.loads(pickle.dumps(stats))
        assert revived == stats
        assert dict(revived.custom) == {"scans_per_day": 3.5}
        with pytest.raises(TypeError):
            revived.custom["x"] = 1.0  # stays frozen after the round trip

    def test_worker_rejects_foreign_contract_version(self):
        from repro.errors import WorkerError

        spec = dataclasses.replace(_spec(), version=WORK_SPEC_VERSION + 1)
        with pytest.raises(WorkerError, match="handshake"):
            run_shard_work(spec)

    def test_worker_output_matches_inline_observation(self):
        spec = _spec()
        observed = _observed(spec)
        registry = _registry()
        for i, candidate in enumerate(observed):
            assert candidate.key == spec.keys[i]
            assert candidate.statistics.file_count == 10 + i
            expected = Candidate(key=candidate.key, statistics=candidate.statistics)
            registry.annotate_all([expected])
            assert candidate.traits == expected.traits

    def test_observe_cost_is_deterministic_and_result_neutral(self):
        cheap = run_shard_work(_spec())
        costly = run_shard_work(_spec(observe_cost=5))
        assert cheap.columnar.matrix.tolist() == costly.columnar.matrix.tolist()
        assert burn_cpu(5, b"x") == burn_cpu(5, b"x")


class TestCacheDeltaMerge:
    def test_indexed_cache_learns_worker_observations(self):
        spec = _spec()
        result = run_shard_work(spec)
        observed = _observed(spec, result)
        cache = IndexedCandidateCache()
        assert cache.apply_delta(result.cache_delta, observed) == len(spec.keys)
        for i in range(len(spec.keys)):
            assert cache.get(i, now=spec.now, token=spec.tokens[i]) is observed[i]
            # A bumped version token must still evict (freshness survived).
            assert cache.get(i, now=spec.now, token=spec.tokens[i] + 1) is None

    def test_stats_cache_learns_worker_observations(self):
        """The connector hands worker observations to its stats cache; a
        connector without a cache drops the delta."""
        from repro.fleet import FleetConnector

        spec = _spec()
        result = run_shard_work(spec)
        observed = _observed(spec, result)
        model = FleetModel(FleetConfig(initial_tables=10, seed=1))
        cache = IndexedCandidateCache()
        FleetConnector(model, stats_cache=cache).store_worker_observations(
            result.cache_delta, observed
        )
        FleetConnector(model).store_worker_observations(result.cache_delta, observed)
        assert len(cache) == len(spec.keys)
        for slot, token, candidate in zip(spec.slots, spec.tokens, observed):
            assert cache.get(slot, now=spec.now, token=token) is candidate

    def test_misaligned_delta_is_rejected(self):
        spec = _spec()
        result = run_shard_work(spec)
        observed = _observed(spec, result)
        with pytest.raises(ValidationError):
            IndexedCandidateCache().apply_delta(result.cache_delta, observed[:-1])


class TestShardedPipelineWorkerModes:
    def test_process_mode_requires_worker_observe_support(self):
        from repro.catalog import Catalog
        from repro.core import (
            AutoCompPipeline,
            Connector,
            LstConnector,
            LstExecutionBackend,
            SequentialScheduler,
            TopKSelector,
            WeightedSumPolicy,
            Objective,
        )
        from repro.engine import Cluster

        class LiveOnlyConnector(Connector):
            """A connector whose observation cannot leave the process."""

            def list_candidates(self, strategy="table"):
                return []

            def collect_statistics(self, key):
                raise NotImplementedError

        connector = LiveOnlyConnector()
        assert connector.worker_transport() is None
        # The catalog connector, by contrast, packs columnar shard work.
        assert LstConnector(Catalog()).worker_transport() is not None
        lst = LstConnector(Catalog())
        pipeline = AutoCompPipeline(
            connector=connector,
            backend=LstExecutionBackend(lst, Cluster("maint", executors=1)),
            traits=_registry(),
            policy=WeightedSumPolicy(
                [Objective("file_count_reduction", 1.0, maximize=True)]
            ),
            selector=TopKSelector(3),
            scheduler=SequentialScheduler(),
        )
        with pytest.raises(ValidationError, match="worker"):
            ShardedPipeline([pipeline], workers="processes")

    def test_rejects_unknown_worker_mode(self):
        model = FleetModel(FleetConfig(initial_tables=50, seed=1))
        strategy = ShardedAutoCompStrategy(model, n_shards=1, k=3)
        with pytest.raises(ValidationError):
            ShardedPipeline(strategy.pipeline.shards, workers="quantum")

    def test_pool_lifecycle_is_pipeline_scoped(self):
        model = FleetModel(FleetConfig(initial_tables=120, seed=4))
        model.step_day()
        with ShardedAutoCompStrategy(
            model, n_shards=2, k=5, workers="processes", max_workers=2
        ) as strategy:
            pipeline = strategy.pipeline
            pipeline.run_cycle(now=0.0)
            executor = pipeline._pool._executor
            assert executor is not None
            model.step_day()
            pipeline.run_cycle(now=DAY)
            assert pipeline._pool._executor is executor, (
                "the worker pool must persist across cycles"
            )
        assert not pipeline._pool.started

    def test_process_cycles_stay_incremental_via_cache_delta(self):
        model = FleetModel(FleetConfig(initial_tables=150, seed=11))
        model.step_day()
        with ShardedAutoCompStrategy(
            model, n_shards=2, k=5, workers="processes", max_workers=2
        ) as strategy:
            strategy.pipeline.run_cycle(now=0.0)
            cache = strategy.caches[0]
            assert cache.misses > 0 and cache.hits == 0
            model.step_day()
            strategy.pipeline.run_cycle(now=DAY)
            assert cache.hits > 0, (
                "worker observations must land in the coordinator cache"
            )


class TestWorkerSideDecide:
    """The decide contract: filter → orient → rank → select in the worker."""

    def _decided_spec(self, k: int = 2):
        from repro.core import ShardDecideSpec, TopKSelector, WeightedSumPolicy, Objective

        spec = _spec(4)
        decide = ShardDecideSpec(
            policy=WeightedSumPolicy(
                [Objective("file_count_reduction", 1.0, maximize=True)]
            ),
            selector=TopKSelector(k),
            hits=(None,) * 4,  # every key missed the coordinator cache
        )
        return dataclasses.replace(spec, decide=decide)

    def test_decision_matches_coordinator_side_decide(self):
        spec = self._decided_spec(k=2)
        result = run_shard_work(spec)
        assert result.decision is not None
        assert result.decision.selected == []  # references cross, not objects
        # Coordinator-side reference: observe + orient + rank + select the
        # same inputs with the same components.
        ranked = spec.decide.policy.rank(_observed(dataclasses.replace(spec, decide=None)))
        expected = spec.decide.selector.select(ranked)
        refs = result.columnar.selected
        assert all(origin == "miss" for origin, _ in refs)
        assert [spec.keys[j] for _, j in refs] == [c.key for c in expected]
        assert list(result.columnar.scores) == [c.score for c in expected]
        assert result.decision.ranked == len(ranked)
        assert result.decision.after_stats_filters == 4

    def test_delta_covers_every_miss(self):
        spec = self._decided_spec(k=1)
        result = run_shard_work(spec)
        # Only one candidate is selected, but every observed miss rides the
        # delta with its original slot/token pairing, so unselected dirty
        # tables are not re-observed next cycle.
        assert len(result.columnar.selected) == 1
        assert result.cache_delta.slots == spec.slots
        assert result.cache_delta.tokens == spec.tokens

    def test_decide_spec_validates_hole_count(self):
        from repro.core import ShardDecideSpec, TopKSelector, WeightedSumPolicy, Objective

        spec = _spec(3)
        decide = ShardDecideSpec(
            policy=WeightedSumPolicy(
                [Objective("file_count_reduction", 1.0, maximize=True)]
            ),
            selector=TopKSelector(1),
            hits=(None,),  # 1 hole for 3 miss keys
        )
        with pytest.raises(ValidationError, match="hole"):
            dataclasses.replace(spec, decide=decide)



class TestWorkerFailureHandling:
    def test_poisoned_spec_surfaces_worker_error_and_drains_futures(self):
        from repro.errors import WorkerError

        model = FleetModel(FleetConfig(initial_tables=120, seed=6))
        model.step_day()
        with ShardedAutoCompStrategy(
            model,
            n_shards=3,
            k=5,
            workers="processes",
            max_workers=2,
        ) as strategy:
            pipeline = strategy.pipeline
            victim = pipeline.shards[1].connector
            original = victim.export_columnar

            def poisoned(keys, shard_index, traits):
                placed, spec = original(keys, shard_index, traits)
                if spec is not None:
                    spec = dataclasses.replace(spec, version=99)
                return placed, spec

            victim.export_columnar = poisoned
            with pytest.raises(WorkerError, match="shard 1"):
                pipeline.run_cycle(now=0.0)
            # Outstanding sibling futures were cancelled/drained: the pool
            # is immediately reusable and the next cycle completes.
            del victim.export_columnar
            model.step_day()
            report = pipeline.run_cycle(now=DAY)
            assert report.report.candidates_generated > 0

    def test_worker_error_chains_the_original_exception(self):
        from repro.errors import WorkerError

        model = FleetModel(FleetConfig(initial_tables=80, seed=7))
        model.step_day()
        with ShardedAutoCompStrategy(
            model,
            n_shards=2,
            k=5,
            workers="processes",
            max_workers=2,
        ) as strategy:
            pipeline = strategy.pipeline
            # Shard 1 ships; the coordinator observes shard 0 itself.
            victim = pipeline.shards[1].connector
            original = victim.export_columnar
            victim.export_columnar = lambda keys, i, traits: (_ for _ in ()).throw(
                RuntimeError("export exploded")
            )
            try:
                pipeline.run_cycle(now=0.0)
                raise AssertionError("expected WorkerError")
            except WorkerError as exc:
                assert isinstance(exc.__cause__, RuntimeError)
                assert "shard 1 failed" in str(exc)
            finally:
                victim.export_columnar = original
