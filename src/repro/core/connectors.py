"""Connectors: AutoComp's view onto a catalog / LST platform.

Cross-platform compatibility (NFR3) comes from this seam: the OODA pipeline
only ever talks to a :class:`Connector`, which produces candidate keys and
the standardized :class:`~repro.core.candidates.CandidateStatistics`.
Two implementations ship with the library:

* :class:`LstConnector` (here) — backed by a live
  :class:`~repro.catalog.catalog.Catalog` of simulated Iceberg/Delta tables
  (used by the §6 synthetic experiments); and
* :class:`~repro.fleet.connectors.FleetConnector` — backed by the
  vectorised fleet state (used by the §7 production-scale experiments).
"""

from __future__ import annotations

import abc
import threading

from repro.catalog.catalog import Catalog
from repro.core.candidates import (
    Candidate,
    CandidateKey,
    CandidateScope,
    CandidateStatistics,
    GENERATION_STRATEGIES,
)
from repro.core.statscache import IndexedCandidateCache
from repro.errors import ValidationError
from repro.lst.base import BaseTable


class Connector(abc.ABC):
    """Platform adapter feeding candidates and statistics to the pipeline.

    Connectors may carry an
    :class:`~repro.core.statscache.IndexedCandidateCache` in
    ``stats_cache``; when present, the observe phase becomes incremental
    (O(dirty tables) instead of O(all tables)) and write events reaching
    :meth:`invalidate` — typically from the
    :class:`~repro.core.service.AutoCompService` notification inbox — evict
    the affected entries.
    """

    #: Optional incremental-observation cache (set by subclasses).
    stats_cache: IndexedCandidateCache | None = None

    @property
    def reuses_candidates(self) -> bool:
        """Whether :meth:`observe` may return the *same annotated Candidate
        objects* across cycles for unchanged tables — true exactly when a
        cache is attached.  The pipeline then skips trait recomputation
        for candidates that already carry every registered trait.
        """
        return self.stats_cache is not None

    @abc.abstractmethod
    def list_candidates(self, strategy: str = "table") -> list[CandidateKey]:
        """Generate candidate keys under a generation strategy.

        Args:
            strategy: one of ``table``, ``partition``, ``hybrid``.
        """

    @abc.abstractmethod
    def collect_statistics(self, key: CandidateKey) -> CandidateStatistics:
        """Observe phase: gather the standardized statistics for a key."""

    def observe(self, keys: list[CandidateKey]) -> list[Candidate]:
        """Materialise candidates with statistics for a list of keys."""
        return [Candidate(key=key, statistics=self.collect_statistics(key)) for key in keys]

    def list_candidates_sharded(
        self, strategy: str, n_shards: int, shard_index: int
    ) -> list[CandidateKey]:
        """Shard ``shard_index``'s slice of the candidate listing.

        The default filters the full listing through the consistent hash;
        vectorised connectors override it to produce the slice directly.
        Used by the sharded control plane when merge order permits
        (per-shard listings concatenate instead of interleave).
        """
        from repro.core.sharding import shard_for_key

        return [
            key
            for key in self.list_candidates(strategy)
            if shard_for_key(key, n_shards) == shard_index
        ]

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: evict ``key``'s table from the stats cache."""
        if self.stats_cache is not None:
            self.stats_cache.invalidate(key)

    def cache_counters(self) -> dict | None:
        """The stats cache's lookup counters, for hit-ratio telemetry.

        Returns ``{"id", "hits", "misses", "expirations"}`` (``id`` is the
        cache object's identity, letting the sharded plane deduplicate
        shards that share one cache), or None when the connector carries
        no cache.  Reads the cache's ``counters_snapshot()`` (one locked
        read of all counters) so a concurrent lookup cannot tear the
        sample.
        """
        cache = self.stats_cache
        if cache is None:
            return None
        counters = cache.counters_snapshot()
        return {
            "id": id(cache),
            "hits": float(counters["hits"]),
            "misses": float(counters["misses"]),
            "expirations": float(counters["expirations"]),
        }

    # --- process-mode shard-worker contract ---------------------------------
    #
    # The scale-out control plane's process workers cannot touch this
    # connector's live state; instead the coordinator drives the
    # :class:`~repro.core.transport.ColumnarTransport` obtained from
    # :meth:`worker_transport`, which (a) resolves cache hits locally and
    # packs the miss inputs into a shippable spec (the connector's
    # ``export_columnar`` hook), then (b) merges the worker's trait matrix
    # and cache delta back in (:meth:`store_worker_observations`).

    def worker_transport(self):
        """The :class:`~repro.core.transport.ColumnarTransport` to use.

        Returns None (the base behaviour) when this connector cannot feed
        process workers — its observation reads live, unshippable state —
        and the sharded pipeline must run inline.  Connectors that
        implement ``export_columnar`` override this.
        """
        return None

    def store_worker_observations(self, delta, candidates: list[Candidate]) -> None:
        """Absorb worker observations (rebuilt coordinator-side) into the cache.

        ``candidates`` are position-aligned with ``delta`` and already
        oriented, so the cache stores them whole.
        """
        if self.stats_cache is not None:
            self.stats_cache.apply_delta(delta, candidates)


class LstConnector(Connector):
    """Catalog-of-live-tables connector.

    Args:
        catalog: the control plane whose tables are compaction targets.
        include_databases: restrict candidate generation to these databases
            (None = all).
        stats_cache: optional incremental-observation
            :class:`~repro.core.statscache.IndexedCandidateCache`.
            Candidate keys are interned to dense integer indices, the
            table's metadata ``version`` (bumped by every commit) serves
            as the freshness token — so entries self-heal with no event
            plumbing — and whole annotated candidates are reused across
            cycles, skipping the statistics build *and* the trait
            recompute for clean tables.  As with the fleet connector,
            custom traits that read ``quota_utilization`` should not be
            combined with the cache (quota is re-stamped on hits, but
            traits are not recomputed).

    Because :meth:`export_columnar` applies :meth:`observe`'s hit rule, a
    key is shipped to a process worker if and only if the in-process path
    would have re-observed it (the worker modes' byte-identical cycle
    reports depend on exactly that).  :meth:`observe` builds every miss
    through :meth:`collect_statistics`, which always reads live state; a
    subclass that overrides it gets no worker transport, because the
    columnar export cannot carry the override's output.
    """

    def worker_transport(self):
        if type(self).collect_statistics is not LstConnector.collect_statistics:
            return None
        from repro.core.transport import ColumnarTransport

        return ColumnarTransport(self)

    def __init__(
        self,
        catalog: Catalog,
        include_databases: list[str] | None = None,
        stats_cache: IndexedCandidateCache | None = None,
    ) -> None:
        self.catalog = catalog
        self.include_databases = (
            set(include_databases) if include_databases is not None else None
        )
        self.stats_cache = stats_cache
        #: Cache slot interning: candidate key → dense slot index.
        self._index_of: dict[CandidateKey, int] = {}
        #: Reverse mapping for table-granular write-event invalidation.
        self._indices_by_table: dict[str, list[int]] = {}
        # Interning a *new* key reads then grows two dicts, which must not
        # interleave with another thread's interning (two keys racing len()
        # would share a slot) or with a write-event hook's invalidate()
        # reading the per-table index lists.
        self._intern_lock = threading.Lock()

    def _dense_index(self, key: CandidateKey) -> int:
        # Double-checked locking: dict reads are atomic under the GIL and
        # an interned index is immutable once assigned, so the unlocked
        # first probe can only miss (never misread) — the locked re-check
        # closes the insert race.
        index = self._index_of.get(key)  # repro-lint: disable=RL001 -- double-checked locking; entries are write-once and re-checked under the lock
        if index is None:
            with self._intern_lock:
                index = self._index_of.get(key)
                if index is None:
                    index = self._index_of[key] = len(self._index_of)
                    self._indices_by_table.setdefault(key.qualified_table, []).append(
                        index
                    )
        return index

    def _restamp_quota(self, key: CandidateKey, statistics: CandidateStatistics) -> None:
        # Quota drifts through *other* tables' writes while this table's
        # version holds still; re-stamp it so cached observations stay
        # exactly equal to fresh ones.
        quota = self._quota(key)
        if statistics.quota_utilization != quota:
            object.__setattr__(statistics, "quota_utilization", quota)

    def _split_hits(
        self, keys: list[CandidateKey], now: float
    ) -> tuple[list[Candidate | None], list[CandidateKey], list, list, list[int]]:
        """The single source of the bulk-observation hit-validity rule.

        A key hits iff its cache entry was stored under the table's
        current metadata ``version`` (and is younger than the TTL); hits
        get their database-level quota re-stamped in place.  Shared by
        :meth:`observe` and :meth:`export_columnar`, so the in-process
        and worker paths can never disagree about which keys need
        rebuilding.

        Returns:
            ``(placed, miss_keys, miss_slots, miss_tokens,
            miss_positions)`` — ``placed`` holds the hit candidates with
            ``None`` holes; the miss lists describe the holes in order
            (keys, cache slots, freshness tokens, hole positions).
        """
        cache = self.stats_cache
        placed: list[Candidate | None] = [None] * len(keys)
        miss_keys: list[CandidateKey] = []
        miss_slots: list = []
        miss_tokens: list = []
        miss_positions: list[int] = []
        for pos, key in enumerate(keys):
            # The version read is the cheap per-table change counter: one
            # catalog lookup instead of a full file listing + statistics
            # build for clean tables.
            token = self.table_for(key).version
            if cache is None:
                slot: object = key
            else:
                slot = self._dense_index(key)
                candidate = cache.get(slot, now, token)
                if candidate is not None:
                    self._restamp_quota(key, candidate.statistics)
                    placed[pos] = candidate
                    continue
            miss_keys.append(key)
            miss_slots.append(slot)
            miss_tokens.append(token)
            miss_positions.append(pos)
        return placed, miss_keys, miss_slots, miss_tokens, miss_positions

    def observe(self, keys: list[CandidateKey]) -> list[Candidate]:
        now = self.catalog.clock.now
        placed, miss_keys, miss_slots, miss_tokens, miss_positions = self._split_hits(
            keys, now
        )
        if not miss_keys:
            return placed  # type: ignore[return-value] — no holes
        cache = self.stats_cache
        for key, slot, token, pos in zip(
            miss_keys, miss_slots, miss_tokens, miss_positions
        ):
            candidate = Candidate(key=key, statistics=self.collect_statistics(key))
            if cache is not None:
                cache.put(slot, candidate, now, token)
            placed[pos] = candidate
        return placed  # type: ignore[return-value] — all holes filled

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: evict every cached scope of ``key``'s table.

        A write to any scope dirties all scopes of the table (a partition
        append changes the table-scope statistics too), so invalidation is
        deliberately table-granular.
        """
        if self.stats_cache is None:
            return
        # Snapshot the index list under the intern lock so a concurrent
        # _dense_index() append cannot race the iteration.
        with self._intern_lock:
            indices = list(self._indices_by_table.get(key.qualified_table, ()))
        for index in indices:
            self.stats_cache.invalidate_index(index)

    def _tables(self) -> list[BaseTable]:
        tables = []
        for identifier in self.catalog.list_tables():
            if (
                self.include_databases is not None
                and identifier.database not in self.include_databases
            ):
                continue
            tables.append(self.catalog.load_table(identifier))
        return tables

    def list_candidates(self, strategy: str = "table") -> list[CandidateKey]:
        if strategy not in GENERATION_STRATEGIES:
            raise ValidationError(
                f"unknown generation strategy {strategy!r}; "
                f"expected one of {GENERATION_STRATEGIES}"
            )
        keys: list[CandidateKey] = []
        for table in self._tables():
            ident = table.identifier
            use_partitions = strategy == "partition" or (
                strategy == "hybrid" and table.spec.is_partitioned
            )
            if use_partitions and table.spec.is_partitioned:
                for partition in table.partitions():
                    keys.append(
                        CandidateKey(
                            database=ident.database,
                            table=ident.name,
                            scope=CandidateScope.PARTITION,
                            partition=partition,
                        )
                    )
            else:
                keys.append(
                    CandidateKey(
                        database=ident.database,
                        table=ident.name,
                        scope=CandidateScope.TABLE,
                    )
                )
        return keys

    def table_for(self, key: CandidateKey) -> BaseTable:
        """The live table object behind a candidate key."""
        return self.catalog.load_table(key.qualified_table)

    def snapshot_candidate(self, table: BaseTable, since_snapshot_id: int) -> CandidateKey:
        """A snapshot-scope candidate: files added after a base snapshot.

        §4.1: snapshot scope is beneficial when (reasonably) fresh data
        needs more frequent access — only the recently written files are
        considered for compaction, keeping performance objectives for the
        fresh subset without rewriting history.
        """
        ident = table.identifier
        table.snapshot(since_snapshot_id)  # validates existence
        return CandidateKey(
            database=ident.database,
            table=ident.name,
            scope=CandidateScope.SNAPSHOT,
            snapshot_id=since_snapshot_id,
        )

    def files_for(self, key: CandidateKey):
        """Live data files in a candidate's scope."""
        table = self.table_for(key)
        if key.scope is CandidateScope.PARTITION:
            return table.files_in_partitions([key.partition])
        if key.scope is CandidateScope.SNAPSHOT:
            base_ids = table.snapshot(key.snapshot_id).files.keys()
            return [f for f in table.live_files() if f.file_id not in base_ids]
        return table.live_files()

    def collect_statistics(self, key: CandidateKey) -> CandidateStatistics:
        """Live statistics for one key (the cache serves :meth:`observe`)."""
        sizes, target, partitions, deletes, created, modified, quota = self._observation_row(key)
        return CandidateStatistics.from_file_sizes(
            list(sizes),
            target,
            partition_count=partitions,
            delete_file_count=deletes,
            created_at=created,
            last_modified_at=modified,
            quota_utilization=quota,
        )

    def _quota(self, key: CandidateKey) -> float:
        try:
            return self.catalog.quota_utilization(key.database)
        except ValidationError:
            return 0.0

    def _observation_row(self, key: CandidateKey) -> tuple:
        """The raw per-candidate observation inputs.

        ``(file_sizes, target_file_size, partition_count,
        delete_file_count, created_at, last_modified_at,
        quota_utilization)`` — the inputs of
        :meth:`~repro.core.candidates.CandidateStatistics.from_file_sizes`.
        Both the live statistics build (:meth:`collect_statistics`) and
        the worker-bound columnar export come from this method, so the two
        observation paths cannot drift.
        """
        table = self.table_for(key)
        policy = self.catalog.policy(key.qualified_table)
        files = self.files_for(key)
        if key.scope is CandidateScope.PARTITION:
            partition_count = 1
            # Partition-scope candidates carry partition-level write
            # recency: write-activity filters can then skip hot partitions
            # while still compacting the table's cold ones.
            last_modified = table.partition_last_modified(key.partition)
        else:
            partition_count = max(len({f.partition for f in files}), 1)
            last_modified = table.last_modified_at
        return (
            tuple(f.size_bytes for f in files),
            policy.target_file_size,
            partition_count,
            table.delete_file_count,
            table.created_at,
            last_modified,
            self._quota(key),
        )

    # --- process-mode shard workers ---------------------------------------------

    def export_columnar(
        self, keys: list[CandidateKey], shard_index: int, traits
    ) -> tuple[list[Candidate | None], "object | None"]:
        """Columnar export: the same hit rule, misses packed as flat arrays.

        The hit pass *is* :meth:`_split_hits` and the miss rows come from
        :meth:`_observation_row` — identical inputs to every other
        observation path — but instead of per-key tuples the file sizes
        land in one concatenated int64 array (with offsets) inside a
        shared-memory block, scalar aggregates precomputed by exact
        integer cumulative sums.  The coordinator retains zero-copy views
        of the same block to rebuild the worker's candidates on merge.
        """
        from repro.core.columnar import ColumnarMissBlock
        from repro.core.workers import ShardWorkSpec

        now = self.catalog.clock.now
        placed, miss_keys, miss_slots, miss_tokens, _ = self._split_hits(keys, now)
        if not miss_keys:
            return placed, None
        rows = [self._observation_row(key) for key in miss_keys]
        block = ColumnarMissBlock.from_sizes(
            size_lists=[row[0] for row in rows],
            targets=[row[1] for row in rows],
            partition_counts=[row[2] for row in rows],
            delete_file_counts=[row[3] for row in rows],
            created_at=[row[4] for row in rows],
            last_modified_at=[row[5] for row in rows],
            quota_utilization=[row[6] for row in rows],
        )
        spec = ShardWorkSpec(
            shard_index=shard_index,
            keys=tuple(miss_keys),
            slots=tuple(miss_slots),
            tokens=tuple(miss_tokens),
            now=now,
            traits=traits,
            block=block,
        )
        return placed, spec
