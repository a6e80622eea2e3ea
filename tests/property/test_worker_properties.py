"""Property tests for the shard worker process boundary.

Two guarantees the scale-out control plane leans on:

* **mode equivalence** — thread- and process-mode sharded cycles produce
  *identical* :class:`~repro.core.sharding.ShardedCycleReport` contents
  for the same seeded fleet (the decide/act phases never notice which
  side of a process boundary observation happened on);
* **contract round-trip** — :class:`~repro.core.workers.ShardWorkSpec`
  and :class:`~repro.core.workers.ShardCycleResult` survive pickling
  bit-for-bit, whatever the column values (inline columnar blocks).
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CandidateKey, CandidateScope, ShardWorkSpec, run_shard_work
from repro.core.columnar import ColumnarMissBlock
from repro.core.traits import (
    ComputeCostTrait,
    FileCountReductionTrait,
    TraitRegistry,
)
from repro.fleet import FleetConfig, FleetModel, ShardedAutoCompStrategy
from repro.units import DAY, GiB


def _report_fields(sharded) -> dict:
    return {
        "report": dataclasses.asdict(sharded.report),
        "shards": [dataclasses.asdict(r) for r in sharded.shard_reports],
    }


class TestWorkerModeEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_shards=st.integers(min_value=1, max_value=3),
        tables=st.integers(min_value=60, max_value=160),
    )
    @settings(max_examples=6, deadline=None)
    def test_thread_and_process_cycles_are_identical(self, seed, n_shards, tables):
        """Every field of every cycle report — counts, selections, realised
        results — must match across worker modes, over multiple days so the
        second cycle exercises the cross-process cache delta path."""
        config = FleetConfig(initial_tables=tables, seed=seed)
        model_t, model_p = FleetModel(config), FleetModel(config)
        model_t.step_day()
        model_p.step_day()
        with ShardedAutoCompStrategy(
            model_t, n_shards=n_shards, k=8, workers="threads"
        ) as threads, ShardedAutoCompStrategy(
            model_p, n_shards=n_shards, k=8, workers="processes", max_workers=2
        ) as processes:
            for day in range(3):
                now = float(day) * DAY
                thread_cycle = threads.pipeline.run_cycle(now=now)
                process_cycle = processes.pipeline.run_cycle(now=now)
                assert _report_fields(thread_cycle) == _report_fields(process_cycle)
                model_t.step_day()
                model_p.step_day()


_columns = st.integers(min_value=3, max_value=6).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "file_count": st.tuples(*[st.integers(5, 500)] * n),
            "total_bytes": st.tuples(*[st.integers(0, 10**12)] * n),
            "small_file_count": st.tuples(*[st.integers(0, 5)] * n),
            "small_file_bytes": st.tuples(*[st.integers(0, 10**9)] * n),
            "partition_count": st.tuples(*[st.integers(1, 8)] * n),
            "created_at": st.tuples(*[st.floats(0, 1e9, allow_nan=False)] * n),
            "last_modified_at": st.tuples(*[st.floats(0, 1e9, allow_nan=False)] * n),
            "quota_utilization": st.tuples(*[st.floats(0, 1, allow_nan=False)] * n),
        }
    )
)


class TestLocalSelectionModeEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_shards=st.integers(min_value=2, max_value=3),
        tables=st.integers(min_value=60, max_value=140),
    )
    @settings(max_examples=4, deadline=None)
    def test_local_cycles_identical_across_modes_and_decide_placement(
        self, seed, n_shards, tables
    ):
        """selection="local" must produce identical cycle reports whether the
        decide phase runs inline, on threads, or inside process workers."""
        config = FleetConfig(initial_tables=tables, seed=seed)
        variants = [
            {"workers": "threads", "max_workers": 1},  # inline
            {"workers": "threads", "max_workers": 2},
            {"workers": "processes", "max_workers": 2},
        ]
        models, strategies = [], []
        for kwargs in variants:
            model = FleetModel(config)
            model.step_day()
            models.append(model)
            strategies.append(
                ShardedAutoCompStrategy(
                    model, n_shards=n_shards, k=9, selection="local", **kwargs
                )
            )
        try:
            for day in range(3):
                now = float(day) * DAY
                reports = [s.pipeline.run_cycle(now=now) for s in strategies]
                reference = _report_fields(reports[0])
                for report in reports[1:]:
                    assert _report_fields(report) == reference
                for model in models:
                    model.step_day()
        finally:
            for strategy in strategies:
                strategy.close()

    def test_worker_decide_shrinks_the_return_payload(self):
        """Local selection decides in the worker, so the shipped-back
        candidate count is O(selected); global selection decides on the
        coordinator and takes back O(shard misses)."""
        config = FleetConfig(initial_tables=200, seed=5)
        counts = {}
        for selection in ("global", "local"):
            model = FleetModel(config)
            model.step_day()
            with ShardedAutoCompStrategy(
                model,
                n_shards=2,
                k=6,
                selection=selection,
                workers="processes",
                max_workers=2,
            ) as strategy:
                strategy.pipeline.run_cycle(now=0.0)
                series = strategy.pipeline.telemetry.series(
                    "autocomp.fleet.returned_candidates"
                )
                counts[selection] = series.last()
        assert counts["local"] <= 6  # at most the split top-k selection
        assert counts["local"] < counts["global"]


def _build_lst_catalog():
    """A deterministic catalog: two tenants, mixed partitioned/flat tables."""
    from repro.catalog import Catalog
    from repro.lst import Field, MonthTransform, PartitionField, PartitionSpec, Schema

    from tests.conftest import fragment_table

    catalog = Catalog()
    schema = Schema.of(Field("id", "long"), Field("event_date", "date"))
    monthly = PartitionSpec.of(PartitionField("event_date", MonthTransform()))
    catalog.create_database("tenant0", quota_objects=50_000)
    catalog.create_database("tenant1")
    for i in range(10):
        db = f"tenant{i % 2}"
        if i % 3 == 0:
            table = catalog.create_table(f"{db}.part{i:02d}", schema, spec=monthly)
            fragment_table(
                table, partitions=[(0,), (1,)], files_per_partition=3 + i % 4
            )
        else:
            table = catalog.create_table(f"{db}.flat{i:02d}", schema)
            fragment_table(table, partitions=[()], files_per_partition=4 + i % 5)
    return catalog


def _lst_daily_writes(catalog, day: int) -> None:
    """Deterministically dirty a rotating subset of tables."""
    from repro.units import DAY as _DAY

    from tests.conftest import fragment_table

    names = sorted(str(ident) for ident in catalog.list_tables())
    for offset in range(3):
        name = names[(day * 3 + offset) % len(names)]
        table = catalog.load_table(name)
        partition = (0,) if table.spec.is_partitioned else ()
        fragment_table(table, partitions=[partition], files_per_partition=2)
    catalog.clock.advance_by(_DAY)


class TestLstConnectorModeEquivalence:
    """The realistic catalog path through process workers (tentpole)."""

    @pytest.mark.parametrize(
        "cached,selection",
        [(False, "global"), (True, "global"), (True, "local")],
    )
    def test_thread_and_process_lst_cycles_are_identical(self, cached, selection):
        from repro.core import IndexedCandidateCache, openhouse_sharded_pipeline
        from repro.engine import Cluster

        def pipeline(catalog, workers):
            return openhouse_sharded_pipeline(
                catalog,
                Cluster("maint", executors=2),
                n_shards=2,
                stats_cache=IndexedCandidateCache() if cached else None,
                selection=selection,
                workers=workers,
                max_workers=2,
                k=6,
                min_table_age_s=0.0,
                generation="hybrid",
            )

        catalog_t, catalog_p = _build_lst_catalog(), _build_lst_catalog()
        with pipeline(catalog_t, "threads") as threads, pipeline(
            catalog_p, "processes"
        ) as processes:
            for day in range(3):
                now = catalog_t.clock.now
                thread_cycle = threads.run_cycle(now=now)
                process_cycle = processes.run_cycle(now=now)
                assert _report_fields(thread_cycle) == _report_fields(process_cycle), (
                    f"diverged on day {day}"
                )
                _lst_daily_writes(catalog_t, day)
                _lst_daily_writes(catalog_p, day)

    def test_lst_cycles_byte_identical_across_execution_matrix(self):
        """Inline, thread-pool and process-pool cycles must produce
        byte-identical cycle reports — the pickled report blobs themselves
        are compared, so even float bit patterns must agree."""
        from repro.core import IndexedCandidateCache, openhouse_sharded_pipeline
        from repro.engine import Cluster

        variants = [
            ("threads", 1),  # max_workers=1: effectively inline
            ("threads", 2),
            ("processes", 2),
        ]
        catalogs, pipelines = [], []
        for workers, width in variants:
            catalog = _build_lst_catalog()
            catalogs.append(catalog)
            pipelines.append(
                openhouse_sharded_pipeline(
                    catalog,
                    Cluster("maint", executors=2),
                    n_shards=2,
                    stats_cache=IndexedCandidateCache(),
                    selection="local",
                    workers=workers,
                    max_workers=width,
                    k=6,
                    min_table_age_s=0.0,
                )
            )
        try:
            for day in range(3):
                blobs = [
                    pickle.dumps(_report_fields(p.run_cycle(now=c.clock.now)))
                    for p, c in zip(pipelines, catalogs)
                ]
                assert blobs[0] == blobs[1] == blobs[2], f"diverged on day {day}"
                for catalog in catalogs:
                    _lst_daily_writes(catalog, day)
        finally:
            for pipeline in pipelines:
                pipeline.close()

    def test_lst_process_cycles_stay_incremental(self):
        from repro.core import IndexedCandidateCache, openhouse_sharded_pipeline
        from repro.engine import Cluster

        catalog = _build_lst_catalog()
        cache = IndexedCandidateCache()
        with openhouse_sharded_pipeline(
            catalog,
            Cluster("maint", executors=2),
            n_shards=2,
            stats_cache=cache,
            workers="processes",
            max_workers=2,
            k=0,  # no act-phase writes: the second cycle must be all hits
            min_table_age_s=0.0,
        ) as pipeline:
            pipeline.run_cycle(now=catalog.clock.now)
            assert cache.hits == 0 and cache.misses > 0
            pipeline.run_cycle(now=catalog.clock.now)
            assert cache.misses == len(cache)  # no new misses
            assert cache.hits > 0


class TestContractRoundTrip:
    @given(
        columns=_columns,
        shard_index=st.integers(min_value=0, max_value=7),
        now=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        observe_cost=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_spec_and_result_survive_pickling(
        self, columns, shard_index, now, observe_cost
    ):
        n = len(columns["file_count"])
        block = ColumnarMissBlock.from_columns(
            dict(columns, target_file_size=(512,) * n), n
        )
        assert block.backing == "inline"
        spec = ShardWorkSpec(
            shard_index=shard_index,
            keys=tuple(
                CandidateKey("db", f"table{i:06d}", CandidateScope.TABLE)
                for i in range(n)
            ),
            slots=tuple(range(n)),
            tokens=tuple(i + 1 for i in range(n)),
            now=now,
            traits=TraitRegistry(
                [
                    FileCountReductionTrait(),
                    ComputeCostTrait(
                        executor_memory_gb=192.0, rewrite_bytes_per_hour=768 * GiB
                    ),
                ]
            ),
            block=block,
            observe_cost=observe_cost,
        )
        thawed = pickle.loads(pickle.dumps(spec))
        assert thawed.keys == spec.keys
        assert thawed.block.statistics_batch() == spec.block.statistics_batch()
        assert (thawed.slots, thawed.tokens, thawed.now) == (
            spec.slots,
            spec.tokens,
            spec.now,
        )
        # The worker's output is the same whether computed from the
        # original spec or its pickled twin, and itself round-trips.
        result = run_shard_work(spec)
        twin = run_shard_work(thawed)
        assert result.columnar.trait_names == twin.columnar.trait_names
        assert result.columnar.matrix.tobytes() == twin.columnar.matrix.tobytes()
        revived = pickle.loads(pickle.dumps(result))
        assert revived.columnar.matrix.tobytes() == result.columnar.matrix.tobytes()
        assert revived.cache_delta == result.cache_delta
