"""Tests for the incremental-observation cache (statscache)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    AutoCompService,
    Candidate,
    CandidateKey,
    CandidateScope,
    CandidateStatistics,
    IndexedCandidateCache,
    LstConnector,
    openhouse_pipeline,
)
from repro.engine import Cluster
from repro.errors import ValidationError
from repro.fleet import (
    AutoCompStrategy,
    FleetConfig,
    FleetConnector,
    FleetModel,
)
from repro.units import DAY, MiB

from tests.conftest import fragment_table


def _stats(small: int = 5, total: int = 10) -> CandidateStatistics:
    sizes = [8 * MiB] * small + [600 * MiB] * (total - small)
    return CandidateStatistics.from_file_sizes(sizes, target_file_size=512 * MiB)


def _table_key(db: str = "db", table: str = "events") -> CandidateKey:
    return CandidateKey(db, table, CandidateScope.TABLE)


def _partition_key(partition) -> CandidateKey:
    return CandidateKey("db", "events", CandidateScope.PARTITION, partition=partition)


def _candidate() -> Candidate:
    return Candidate(key=_table_key(), statistics=_stats())


class TestStatsCache:
    """Lookup, expiry and invalidation accounting of the connectors'
    ``stats_cache``."""

    def test_put_then_get_hits(self):
        cache = IndexedCandidateCache()
        candidate = _candidate()
        assert cache.get(0) is None
        cache.put(0, candidate)
        assert cache.get(0) is candidate
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert len(cache) == 1

    def test_ttl_expiry_evicts(self):
        cache = IndexedCandidateCache(ttl_s=10.0)
        candidate = _candidate()
        cache.put(0, candidate, now=100.0)
        assert cache.get(0, now=109.9) is candidate
        assert cache.get(0, now=110.0) is None  # aged out
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_token_mismatch_evicts(self):
        cache = IndexedCandidateCache()
        candidate = _candidate()
        cache.put(0, candidate, token=3)
        assert cache.get(0, token=3) is candidate
        assert cache.get(0, token=4) is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_invalidate_drops_all_scopes_of_the_table(
        self, catalog, simple_schema, monthly_spec
    ):
        catalog.create_database("db")
        fragment_table(catalog.create_table("db.events", simple_schema, spec=monthly_spec))
        fragment_table(catalog.create_table("db.other", simple_schema, spec=monthly_spec))
        cache = IndexedCandidateCache()
        connector = LstConnector(catalog, stats_cache=cache)
        connector.observe(
            [
                _table_key(),
                _partition_key((0,)),
                _partition_key((1,)),
                _table_key(table="other"),
            ]
        )
        connector.invalidate(_partition_key((0,)))
        assert cache.invalidations == 3
        assert len(cache) == 1  # only db.other survives

    def test_invalidate_key_is_exact(self):
        cache = IndexedCandidateCache()
        cache.put(0, _candidate())
        cache.put(1, _candidate())
        assert cache.invalidate_index(1)
        assert not cache.invalidate_index(1)
        assert cache.get(0) is not None

    def test_clear_preserves_counters(self):
        cache = IndexedCandidateCache()
        cache.put(0, _candidate())
        cache.get(0)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_rejects_nonpositive_ttl(self):
        with pytest.raises(ValidationError):
            IndexedCandidateCache(ttl_s=0)


class TestIndexedCandidateCache:
    def test_put_then_get_hits_with_matching_token(self):
        cache = IndexedCandidateCache()
        candidate = _candidate()
        cache.put(3, candidate, now=0.0, token=7)
        assert cache.get(3, token=7) is candidate
        assert cache.get(3, token=8) is None  # version bumped -> stale
        assert (cache.hits, cache.misses) == (1, 1)

    def test_ttl_expiry(self):
        cache = IndexedCandidateCache(ttl_s=5.0)
        candidate = _candidate()
        cache.put(0, candidate, now=0.0, token=1)
        assert cache.get(0, now=4.9, token=1) is candidate
        assert cache.get(0, now=5.0, token=1) is None

    def test_invalidate_index(self):
        cache = IndexedCandidateCache()
        cache.put(2, _candidate(), token=1)
        assert cache.invalidate_index(2)
        assert not cache.invalidate_index(2)
        assert not cache.invalidate_index(99)  # out of capacity: no-op
        assert cache.get(2, token=1) is None
        assert cache.invalidations == 1

    def test_unseen_index_is_a_miss(self):
        cache = IndexedCandidateCache()
        assert cache.get(41) is None
        assert cache.misses == 1


class TestLstConnectorCaching:
    def _world(self, catalog, simple_schema, monthly_spec):
        catalog.create_database("db")
        table = catalog.create_table("db.events", simple_schema, spec=monthly_spec)
        fragment_table(table)
        return table

    def test_second_observation_is_served_from_cache(
        self, catalog, simple_schema, monthly_spec
    ):
        self._world(catalog, simple_schema, monthly_spec)
        cache = IndexedCandidateCache()
        connector = LstConnector(catalog, stats_cache=cache)
        keys = connector.list_candidates("table")
        (first,) = connector.observe(keys)
        (second,) = connector.observe(keys)
        assert second is first  # the observed candidate object itself
        assert cache.hits == 1

    def test_invalidate_forces_reobservation(self, catalog, simple_schema, monthly_spec):
        self._world(catalog, simple_schema, monthly_spec)
        cache = IndexedCandidateCache()
        connector = LstConnector(catalog, stats_cache=cache)
        keys = connector.list_candidates("table")
        (before,) = connector.observe(keys)
        # The table did not change, so only the write event evicts it.
        connector.invalidate(keys[0])
        (after,) = connector.observe(keys)
        assert after is not before
        assert after.statistics == before.statistics
        assert (cache.invalidations, cache.hits) == (1, 0)

    def test_ttl_fallback_uses_the_catalog_clock(
        self, catalog, simple_schema, monthly_spec
    ):
        self._world(catalog, simple_schema, monthly_spec)
        cache = IndexedCandidateCache(ttl_s=60.0)
        connector = LstConnector(catalog, stats_cache=cache)
        keys = connector.list_candidates("table")
        (before,) = connector.observe(keys)
        catalog.clock.advance_by(59.0)
        assert connector.observe(keys)[0] is before
        # No write bumped the table version: only the TTL expires the entry.
        catalog.clock.advance_by(2.0)
        assert connector.observe(keys)[0] is not before
        assert cache.expirations == 1


class TestServiceNotifyInvalidation:
    def test_notify_drains_into_cache_invalidation(
        self, catalog, simple_schema, monthly_spec, compaction_cluster
    ):
        catalog.create_database("db")
        hot = catalog.create_table("db.hot", simple_schema, spec=monthly_spec)
        catalog.create_table("db.cold", simple_schema, spec=monthly_spec)
        fragment_table(hot)
        fragment_table(catalog.load_table("db.cold"))
        pipeline = openhouse_pipeline(
            catalog, compaction_cluster, k=0, min_table_age_s=0.0
        )
        cache = IndexedCandidateCache()
        pipeline.connector.stats_cache = cache
        service = AutoCompService(pipeline)
        service.run_cycle()  # cold: fills the cache for both tables
        assert len(cache) == 2
        service.notify(CandidateKey("db", "hot", CandidateScope.TABLE))
        service.run_cycle()
        # The notified table was re-observed; the cold one was served.
        assert cache.invalidations == 1
        assert cache.hits >= 1


class TestCachedCycleDeterminism:
    """NFR2: a cached cycle is byte-identical to a cold one."""

    def test_fleet_cached_cycles_match_cold_cycles(self):
        config = FleetConfig(initial_tables=250, seed=44)

        def run(with_cache: bool):
            model = FleetModel(config)
            model.step_day()
            strategy = AutoCompStrategy(model, k=15)
            if with_cache:
                cache = IndexedCandidateCache()
                strategy.pipeline.connector.stats_cache = cache
            reports = []
            for day in range(3):
                reports.append(strategy.pipeline.run_cycle(now=float(day) * DAY))
                model.step_day()
            hits = cache.hits if with_cache else 0
            return [dataclasses.asdict(r) for r in reports], hits

        cold_reports, _ = run(with_cache=False)
        cached_reports, hits = run(with_cache=True)
        assert hits > 0  # later cycles really were served from the cache
        assert cached_reports == cold_reports

    def test_lst_cached_cycle_matches_cold_cycle(
        self, simple_schema, monthly_spec
    ):
        from repro.catalog import Catalog

        def run(with_cache: bool):
            catalog = Catalog()
            catalog.create_database("db")
            for name in ("a", "b", "c"):
                fragment_table(
                    catalog.create_table(f"db.{name}", simple_schema, spec=monthly_spec)
                )
            pipeline = openhouse_pipeline(
                catalog, Cluster("maint", executors=3), k=1, min_table_age_s=0.0
            )
            cache = IndexedCandidateCache() if with_cache else None
            pipeline.connector.stats_cache = cache
            # The act phase self-invalidates compacted tables, so the
            # second cycle re-observes exactly those; untouched tables are
            # served from the cache.
            first = dataclasses.asdict(pipeline.run_cycle(now=0.0))
            second = dataclasses.asdict(pipeline.run_cycle(now=0.0))
            return first, second, cache

        cold_first, cold_second, _ = run(with_cache=False)
        warm_first, warm_second, cache = run(with_cache=True)
        assert cache.hits > 0
        assert warm_first == cold_first
        assert warm_second == cold_second


class TestFleetConnectorCache:
    def test_rejects_dict_cache(self):
        model = FleetModel(FleetConfig(initial_tables=20, seed=2))
        with pytest.raises(ValidationError):
            FleetConnector(model, stats_cache={})

    def test_reuses_candidates_follows_the_cache(self):
        model = FleetModel(FleetConfig(initial_tables=20, seed=2))
        connector = FleetConnector(model)
        assert not connector.reuses_candidates
        connector.stats_cache = IndexedCandidateCache()
        assert connector.reuses_candidates

    def test_version_token_invalidation_on_write_and_compact(self):
        model = FleetModel(FleetConfig(initial_tables=40, seed=2))
        model.step_day()
        cache = IndexedCandidateCache()
        connector = FleetConnector(model, min_small_files=1, stats_cache=cache)
        keys = connector.list_candidates()
        first = connector.observe(keys)
        misses_after_cold = cache.misses
        second = connector.observe(keys)
        assert cache.misses == misses_after_cold  # all hits
        assert all(a is b for a, b in zip(first, second))  # candidate reuse
        # A compaction bumps the table's stats_version: next observe
        # rebuilds exactly that candidate's statistics (the candidate
        # object is reused, so compare the statistics reference).
        index = int(keys[0].table[len("table"):])
        stats_before = second[0].statistics
        untouched_before = second[1].statistics
        model.compact(index)
        third = connector.observe(keys)
        assert third[0] is second[0]
        assert third[0].statistics is not stats_before
        assert third[1].statistics is untouched_before

    def test_notify_style_invalidation_via_connector(self):
        model = FleetModel(FleetConfig(initial_tables=30, seed=6))
        model.step_day()
        cache = IndexedCandidateCache()
        connector = FleetConnector(model, min_small_files=1, stats_cache=cache)
        keys = connector.list_candidates()
        connector.observe(keys)
        connector.invalidate(keys[3])
        assert cache.invalidations == 1


class TestReviewRegressions:
    def test_clear_keeps_bulk_accessor_aliases_live(self):
        cache = IndexedCandidateCache()
        slots = cache.candidates
        cache.put(1, Candidate(key=_table_key(), statistics=_stats()), token=1)
        cache.clear()
        assert slots is cache.candidates and len(slots) == 0
        cache.put(0, Candidate(key=_table_key(), statistics=_stats()), token=1)
        assert slots[0] is cache.candidates[0]

    def test_cached_quota_is_restamped_while_table_is_clean(self):
        """Database quota drifts via *other* tables' writes; hits must not
        serve the stale value (it feeds the quota-aware ranking)."""
        model = FleetModel(FleetConfig(initial_tables=120, seed=12))
        model.step_day()
        cache = IndexedCandidateCache()
        connector = FleetConnector(model, min_small_files=1, stats_cache=cache)
        for _ in range(6):
            candidates = connector.observe(connector.list_candidates())
            model.step_day()
        assert cache.hits > 0
        fresh_quota = model.observe_view().quota
        for candidate in connector.observe(connector.list_candidates()):
            index = int(candidate.key.table[len("table"):])
            assert candidate.statistics.quota_utilization == fresh_quota[index]

    def test_build_unchecked_matches_the_dataclass_field_for_field(self):
        """Guards the trusted constructor against future field drift: a new
        CandidateStatistics field must show up here (dataclass __eq__
        compares every declared field, raising on a missing attribute)."""
        normal = CandidateStatistics(
            file_count=7,
            total_bytes=700,
            small_file_count=3,
            small_file_bytes=120,
            target_file_size=512,
            file_sizes=(),
            partition_count=2,
            created_at=1.5,
            last_modified_at=2.5,
            quota_utilization=0.25,
        )
        trusted = CandidateStatistics.build_unchecked(
            file_count=7,
            total_bytes=700,
            small_file_count=3,
            small_file_bytes=120,
            target_file_size=512,
            partition_count=2,
            created_at=1.5,
            last_modified_at=2.5,
            quota_utilization=0.25,
        )
        assert trusted == normal
        declared = {f.name for f in dataclasses.fields(CandidateStatistics)}
        assert set(trusted.__dict__) == declared

    def test_lst_cached_quota_is_restamped_on_hit(
        self, catalog, simple_schema, monthly_spec
    ):
        """Quota drifts via *other* tables in the database; LST cache hits
        must serve the fresh value (it feeds quota-aware ranking)."""
        catalog.create_database("db", quota_objects=500)
        a = catalog.create_table("db.a", simple_schema, spec=monthly_spec)
        b = catalog.create_table("db.b", simple_schema, spec=monthly_spec)
        fragment_table(a)
        connector = LstConnector(catalog, stats_cache=IndexedCandidateCache())
        key = CandidateKey("db", "a", CandidateScope.TABLE)
        (before,) = connector.observe([key])
        fragment_table(b, partitions=[(0,)], files_per_partition=50)
        (cached,) = connector.observe([key])
        assert cached is before  # still a cache hit...
        fresh = LstConnector(catalog).collect_statistics(key)
        assert fresh.quota_utilization > 0.0  # the drift really happened
        # ...with fresh quota
        assert cached.statistics.quota_utilization == fresh.quota_utilization

    def test_compaction_self_invalidates_the_cache(
        self, catalog, simple_schema, monthly_spec, compaction_cluster
    ):
        """Without any external notify, a compacted table must be
        re-observed next cycle (not re-selected forever on stale stats)."""
        catalog.create_database("db")
        for name in ("a", "b"):
            fragment_table(
                catalog.create_table(f"db.{name}", simple_schema, spec=monthly_spec)
            )
        pipeline = openhouse_pipeline(
            catalog, compaction_cluster, k=1, min_table_age_s=0.0
        )
        pipeline.connector.stats_cache = IndexedCandidateCache()
        first = pipeline.run_cycle(now=0.0)
        assert first.results and first.results[0].success
        compacted = first.results[0].candidate
        second = pipeline.run_cycle(now=0.0)
        # The stale entry was evicted, so the clean table is now ranked
        # ahead of the just-compacted one instead of re-selecting it.
        assert second.selected and second.selected[0] != compacted
        assert pipeline.connector.stats_cache.invalidations >= 1


class TestVersionSlack:
    """Version tokens are compared exactly: no drift is tolerated."""

    def test_statscache_slack_defaults_to_exact(self):
        cache = IndexedCandidateCache()
        cache.put(0, _candidate(), token=10)
        assert cache.get(0, token=11) is None

    def test_statscache_slack_never_accepts_backwards_tokens(self):
        cache = IndexedCandidateCache()
        cache.put(0, _candidate(), token=10)
        assert cache.get(0, token=9) is None  # token regressed: not a hit

    def test_statscache_slack_accepts_numpy_integer_tokens(self):
        import numpy as np

        cache = IndexedCandidateCache()
        candidate = _candidate()
        cache.put(0, candidate, token=np.int64(10))
        assert cache.get(0, token=np.int64(10)) is candidate
        assert cache.get(0, token=10) is candidate
        assert cache.get(0, token=np.int64(11)) is None
        assert cache.expirations == 1

    def test_fleet_connector_reobserves_after_one_version(self):
        model = FleetModel(FleetConfig(initial_tables=40, seed=2))
        model.step_day()
        cache = IndexedCandidateCache()
        connector = FleetConnector(model, min_small_files=1, stats_cache=cache)
        keys = connector.list_candidates()
        first = connector.observe(keys)
        stats_before = first[0].statistics
        assert connector.observe(keys)[0].statistics is stats_before
        # A single version bump already invalidates the inline hit rule.
        model.compact(int(keys[0].table[len("table"):]))
        assert connector.observe(keys)[0].statistics is not stats_before


class TestStatsCacheThreadSafety:
    """Shards sharing one cache on a thread pool must not race."""

    def test_concurrent_disjoint_shards_keep_exact_accounting(self):
        import threading

        cache = IndexedCandidateCache()
        n_threads, n_keys, rounds = 8, 40, 25
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def shard(worker: int) -> None:
            try:
                # Disjoint slot slices, growing the shared slot arrays
                # concurrently on the first round.
                slots = range(worker * n_keys, (worker + 1) * n_keys)
                barrier.wait()
                for _ in range(rounds):
                    for slot in slots:
                        if cache.get(slot, now=0.0) is None:
                            cache.put(slot, _candidate(), now=0.0)
                    cache.invalidate_index(slots[0])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=shard, args=(worker,)) for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        lookups = n_threads * rounds * n_keys
        # Exact accounting under contention: every lookup was classified
        # exactly once (lost updates would leave the sum short).
        assert cache.hits + cache.misses == lookups
        # Each round's invalidate forces exactly one re-observation per
        # thread after round one.
        assert cache.invalidations == n_threads * rounds
        # The final round's invalidate leaves each thread's first key out.
        assert len(cache) == n_threads * (n_keys - 1)


class TestIndexedCacheThreadSafety:
    def test_concurrent_disjoint_gets_keep_exact_accounting(self):
        """Thread-sharded connectors call get() concurrently for disjoint
        slots; the shared hit/miss/expiration counters must not lose
        updates."""
        import threading

        n_threads, n_slots, rounds = 8, 50, 40
        cache = IndexedCandidateCache()
        for index in range(n_threads * n_slots):
            cache.put(index, Candidate(key=_table_key(), statistics=_stats()), token=1)
        barrier = threading.Barrier(n_threads)

        def shard(worker: int) -> None:
            base = worker * n_slots
            barrier.wait()
            for round_index in range(rounds):
                for offset in range(n_slots):
                    # Alternate valid and never-cached lookups so hits and
                    # misses both race.
                    index = base + offset if round_index % 2 == 0 else 10**6 + base
                    cache.get(index, token=1)

        threads = [
            threading.Thread(target=shard, args=(worker,)) for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Even rounds are all hits, odd rounds all (out-of-capacity) misses.
        assert cache.hits == n_threads * (rounds // 2) * n_slots
        assert cache.misses == n_threads * (rounds // 2) * n_slots
        assert cache.expirations == 0


class TestEvictionAccountingParity:
    """Every eviction source is accounted once, on every lookup path."""

    def _scenario(self) -> tuple[int, int, int, int]:
        cache = IndexedCandidateCache(ttl_s=100.0)
        candidate = Candidate(key=_table_key(), statistics=_stats())
        cache.put(0, candidate, now=0.0, token=1)
        assert cache.get(0, now=1.0, token=1) is not None  # hit
        assert cache.get(0, now=1.0, token=2) is None  # token expiration
        cache.put(0, candidate, now=1.0, token=2)
        assert cache.get(0, now=500.0, token=2) is None  # TTL expiration
        cache.put(0, candidate, now=500.0, token=2)
        cache.invalidate_index(0)  # write event
        assert cache.get(0, now=500.0, token=2) is None  # plain miss
        return (cache.hits, cache.misses, cache.invalidations, cache.expirations)

    def test_same_scenario_same_counters(self):
        # One hit; a token and a TTL expiration; one write-event
        # invalidation followed by a plain miss.
        assert self._scenario() == (1, 3, 1, 2)

    def test_dense_bulk_path_counts_expirations(self):
        """The fleet connector's inline hit pass must account evictions the
        same way IndexedCandidateCache.get does."""
        model = FleetModel(FleetConfig(initial_tables=60, seed=3))
        model.step_day()
        cache = IndexedCandidateCache()
        connector = FleetConnector(model, min_small_files=2, stats_cache=cache)
        keys = connector.list_candidates("table")
        connector.observe(keys)
        assert cache.expirations == 0
        model.step_day()  # writes bump versions: cached entries turn stale
        keys = connector.list_candidates("table")
        connector.observe(keys)
        assert cache.expirations > 0
        assert cache.expirations <= cache.misses
