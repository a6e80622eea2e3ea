"""Tests for the LST (catalog-backed) connector."""

from __future__ import annotations

import pytest

from repro.core import CandidateKey, CandidateScope, LstConnector
from repro.errors import ValidationError
from repro.units import MiB

from tests.conftest import fragment_table


@pytest.fixture
def populated_catalog(catalog, simple_schema, monthly_spec):
    catalog.create_database("db1", quota_objects=10_000)
    catalog.create_database("db2")
    partitioned = catalog.create_table("db1.part", simple_schema, spec=monthly_spec)
    flat = catalog.create_table("db1.flat", simple_schema)
    other = catalog.create_table("db2.other", simple_schema)
    fragment_table(partitioned, partitions=[(0,), (1,), (2,)], files_per_partition=4)
    fragment_table(flat, partitions=[()], files_per_partition=6)
    fragment_table(other, partitions=[()], files_per_partition=2)
    return catalog


class TestCandidateGeneration:
    def test_table_strategy(self, populated_catalog):
        keys = LstConnector(populated_catalog).list_candidates("table")
        assert [str(k) for k in keys] == ["db1.flat", "db1.part", "db2.other"]
        assert all(k.scope is CandidateScope.TABLE for k in keys)

    def test_partition_strategy(self, populated_catalog):
        keys = LstConnector(populated_catalog).list_candidates("partition")
        partition_keys = [k for k in keys if k.scope is CandidateScope.PARTITION]
        table_keys = [k for k in keys if k.scope is CandidateScope.TABLE]
        # Partitioned table yields one key per partition; unpartitioned
        # tables fall back to table scope.
        assert len(partition_keys) == 3
        assert len(table_keys) == 2

    def test_hybrid_strategy(self, populated_catalog):
        keys = LstConnector(populated_catalog).list_candidates("hybrid")
        by_table = {}
        for key in keys:
            by_table.setdefault(key.qualified_table, []).append(key)
        assert len(by_table["db1.part"]) == 3
        assert by_table["db1.part"][0].scope is CandidateScope.PARTITION
        assert by_table["db1.flat"][0].scope is CandidateScope.TABLE

    def test_unknown_strategy(self, populated_catalog):
        with pytest.raises(ValidationError):
            LstConnector(populated_catalog).list_candidates("bogus")

    def test_database_restriction(self, populated_catalog):
        connector = LstConnector(populated_catalog, include_databases=["db2"])
        keys = connector.list_candidates("table")
        assert [str(k) for k in keys] == ["db2.other"]

    def test_empty_table_yields_table_key(self, catalog, simple_schema, monthly_spec):
        catalog.create_database("db")
        catalog.create_table("db.empty", simple_schema, spec=monthly_spec)
        keys = LstConnector(catalog).list_candidates("hybrid")
        # No partitions yet: hybrid falls back to nothing for partitioned
        # tables with no data (no partitions to enumerate).
        assert keys == []


class TestStatistics:
    def test_table_scope_statistics(self, populated_catalog):
        connector = LstConnector(populated_catalog)
        key = CandidateKey("db1", "part", CandidateScope.TABLE)
        stats = connector.collect_statistics(key)
        assert stats.file_count == 12
        assert stats.small_file_count == 12
        assert stats.total_bytes == 12 * 8 * MiB
        assert stats.partition_count == 3
        assert stats.quota_utilization > 0

    def test_partition_scope_statistics(self, populated_catalog):
        connector = LstConnector(populated_catalog)
        key = CandidateKey("db1", "part", CandidateScope.PARTITION, partition=(1,))
        stats = connector.collect_statistics(key)
        assert stats.file_count == 4
        assert stats.partition_count == 1

    def test_unlimited_database_quota_zero(self, populated_catalog):
        connector = LstConnector(populated_catalog)
        key = CandidateKey("db2", "other", CandidateScope.TABLE)
        assert connector.collect_statistics(key).quota_utilization == 0.0

    def test_observe_materialises_candidates(self, populated_catalog):
        connector = LstConnector(populated_catalog)
        keys = connector.list_candidates("table")
        candidates = connector.observe(keys)
        assert len(candidates) == 3
        assert all(c.statistics is not None for c in candidates)

    def test_target_from_policy(self, populated_catalog):
        connector = LstConnector(populated_catalog)
        key = CandidateKey("db1", "flat", CandidateScope.TABLE)
        stats = connector.collect_statistics(key)
        assert stats.target_file_size == 512 * MiB


class TestDenseLstCache:
    """The IndexedCandidateCache path on the catalog connector."""

    def _connector(self, populated_catalog, **kwargs):
        from repro.core.statscache import IndexedCandidateCache

        cache = IndexedCandidateCache(**kwargs)
        return LstConnector(populated_catalog, stats_cache=cache), cache

    def test_second_observation_reuses_candidates(self, populated_catalog):
        connector, cache = self._connector(populated_catalog)
        assert connector.reuses_candidates
        keys = connector.list_candidates("table")
        first = connector.observe(keys)
        assert cache.misses == len(keys)
        second = connector.observe(keys)
        assert cache.hits == len(keys)
        assert all(a is b for a, b in zip(first, second))  # whole-candidate reuse

    def test_version_token_self_heals_on_write(self, populated_catalog):
        connector, cache = self._connector(populated_catalog)
        keys = connector.list_candidates("table")
        first = connector.observe(keys)
        written = next(k for k in keys if str(k) == "db1.flat")
        from tests.conftest import fragment_table

        fragment_table(populated_catalog.load_table("db1.flat"), partitions=[()])
        second = connector.observe(keys)
        by_key_first = {c.key: c for c in first}
        by_key_second = {c.key: c for c in second}
        # The written table was re-observed (no notify event needed)...
        assert (
            by_key_second[written].statistics.file_count
            == by_key_first[written].statistics.file_count + 10
        )
        # ...while every clean table's candidate was served as-is.
        for key in keys:
            if key != written:
                assert by_key_second[key] is by_key_first[key]

    def test_partition_scope_keys_share_the_table_token(self, populated_catalog):
        connector, cache = self._connector(populated_catalog)
        keys = connector.list_candidates("hybrid")
        connector.observe(keys)
        from tests.conftest import fragment_table

        fragment_table(populated_catalog.load_table("db1.part"), partitions=[(0,)])
        misses_before = cache.misses
        connector.observe(keys)
        # All three db1.part partition candidates turned stale (the table
        # version bumped once for all of them); everything else hit.
        assert cache.misses == misses_before + 3

    def test_quota_is_restamped_on_hits(self, populated_catalog):
        connector, cache = self._connector(populated_catalog)
        keys = connector.list_candidates("table")
        quota_key = next(k for k in keys if k.database == "db1")
        first = {c.key: c for c in connector.observe(keys)}
        before = first[quota_key].statistics.quota_utilization
        from tests.conftest import fragment_table

        # Grow a *different* db1 table: quota drifts, versions of the flat
        # table stay put for db1.part and vice versa — pick the pair.
        fragment_table(populated_catalog.load_table("db1.flat"), partitions=[()])
        second = {c.key: c for c in connector.observe(keys)}
        part_key = next(k for k in keys if str(k) == "db1.part")
        assert second[part_key] is first[part_key]  # cache hit
        assert second[part_key].statistics.quota_utilization > before

    def test_invalidate_maps_table_to_dense_indices(self, populated_catalog):
        connector, cache = self._connector(populated_catalog)
        keys = connector.list_candidates("hybrid")
        connector.observe(keys)
        part_key = next(k for k in keys if k.qualified_table == "db1.part")
        connector.invalidate(part_key)
        assert cache.invalidations == 3  # all three partition candidates
        misses_before = cache.misses
        connector.observe(keys)
        assert cache.misses == misses_before + 3

    def test_collect_statistics_bypasses_dense_cache(self, populated_catalog):
        connector, cache = self._connector(populated_catalog)
        key = connector.list_candidates("table")[0]
        stats = connector.collect_statistics(key)
        assert stats.file_count > 0
        assert len(cache) == 0  # single-key reads don't populate slots

    def test_pipeline_cycles_match_uncached_connector(
        self, populated_catalog, compaction_cluster
    ):
        """Dense-cached cycles decide exactly like cold ones (NFR2)."""
        from repro.core.service import openhouse_pipeline
        from repro.core.statscache import IndexedCandidateCache

        def run(dense: bool):
            pipeline = openhouse_pipeline(
                populated_catalog, compaction_cluster, k=0, min_table_age_s=0.0
            )
            if dense:
                # Post-construction assignment is enough: the connector
                # reads the live stats_cache attribute.
                pipeline.connector.stats_cache = IndexedCandidateCache()
            reports = [pipeline.run_cycle(now=0.0) for _ in range(3)]
            return [[str(k) for k in r.selected] + [r.ranked] for r in reports]

        assert run(dense=False) == run(dense=True)

    def test_post_construction_cache_assignment_enables_dense_path(
        self, populated_catalog
    ):
        from repro.core.statscache import IndexedCandidateCache

        connector = LstConnector(populated_catalog)
        assert not connector.reuses_candidates
        connector.stats_cache = IndexedCandidateCache()
        assert connector.reuses_candidates
        keys = connector.list_candidates("table")
        first = connector.observe(keys)
        second = connector.observe(keys)
        assert all(a is b for a, b in zip(first, second))


class TestLstWorkerObservation:
    """The catalog connector's columnar shard-work contract."""

    def _dense(self, populated_catalog):
        from repro.core.statscache import IndexedCandidateCache

        cache = IndexedCandidateCache()
        return LstConnector(populated_catalog, stats_cache=cache), cache

    def test_snapshot_statistics_match_live_observation(self, populated_catalog):
        from repro.core import TraitRegistry
        from repro.core.workers import run_shard_work

        connector = LstConnector(populated_catalog)
        transport = connector.worker_transport()
        keys = connector.list_candidates("hybrid")
        placed, spec = transport.export(keys, 0, TraitRegistry([]))
        assert placed == [None] * len(keys)  # no cache: everything misses
        assert spec is not None and len(spec.block) == len(keys)
        merged = transport.merge(spec, placed, run_shard_work(spec))
        live = LstConnector(populated_catalog).observe(keys)
        assert [c.key for c in merged] == [c.key for c in live]
        assert [c.statistics for c in merged] == [c.statistics for c in live]
        # file_sizes survive the block (entropy-style traits need them).
        assert all(c.statistics.file_sizes for c in merged)
        transport.release(spec)

    def test_spec_is_picklable_and_worker_output_stable(self, populated_catalog):
        import pickle

        from repro.core import TraitRegistry
        from repro.core.traits import FileCountReductionTrait
        from repro.core.workers import run_shard_work

        connector = LstConnector(populated_catalog)
        keys = connector.list_candidates("table")
        _, spec = connector.export_columnar(
            keys, 2, TraitRegistry([FileCountReductionTrait()])
        )
        thawed = pickle.loads(pickle.dumps(spec))
        assert thawed.block.statistics_batch() == spec.block.statistics_batch()
        assert (
            run_shard_work(thawed).columnar.matrix.tolist()
            == run_shard_work(spec).columnar.matrix.tolist()
        )
        spec.block.dispose()

    def test_dense_cache_hits_stay_local(self, populated_catalog):
        from repro.core import TraitRegistry

        connector, cache = self._dense(populated_catalog)
        keys = connector.list_candidates("table")
        connector.observe(keys)  # warm
        placed, spec = connector.export_columnar(keys, 0, TraitRegistry([]))
        assert spec is None  # fully warm: nothing crosses the boundary
        assert all(c is not None for c in placed)

    def test_version_bump_exports_only_the_dirty_table(self, populated_catalog):
        from repro.core import TraitRegistry
        from tests.conftest import fragment_table

        connector, cache = self._dense(populated_catalog)
        keys = connector.list_candidates("table")
        connector.observe(keys)
        fragment_table(populated_catalog.load_table("db1.flat"), partitions=[()])
        placed, spec = connector.export_columnar(keys, 0, TraitRegistry([]))
        assert spec is not None
        assert [str(k) for k in spec.keys] == ["db1.flat"]
        # The freshness token is the table's post-write metadata version.
        assert spec.tokens == (populated_catalog.load_table("db1.flat").version,)
        spec.block.dispose()

    def test_worker_merge_feeds_either_cache_kind(self, populated_catalog):
        from repro.core import TraitRegistry
        from repro.core.statscache import IndexedCandidateCache
        from repro.core.workers import run_shard_work

        for cache in (IndexedCandidateCache(), None):
            connector = LstConnector(populated_catalog, stats_cache=cache)
            transport = connector.worker_transport()
            keys = connector.list_candidates("table")
            placed, spec = transport.export(keys, 0, TraitRegistry([]))
            transport.merge(spec, placed, run_shard_work(spec))
            transport.release(spec)
            if cache is not None:
                assert len(cache) == len(keys)
                # Next bulk pass hits without re-collection.
                _, spec2 = transport.export(keys, 0, TraitRegistry([]))
                assert spec2 is None
