"""Fleet-backed connector and execution backend for the AutoComp core.

These adapters let the *unchanged* OODA pipeline (traits, ranking,
selection) drive the vectorised fleet: candidates map to table indices,
statistics come from the model's arrays, and act-phase jobs apply
:meth:`~repro.fleet.model.FleetModel.compact`.  Because the decision code is
shared with the live-table backend, the §7 production experiments exercise
exactly the logic validated by the §6 synthetic ones (NFR3 in practice).
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from repro.core.candidates import (
    Candidate,
    CandidateKey,
    CandidateScope,
    CandidateStatistics,
)
from repro.core.connectors import Connector
from repro.core.scheduling import (
    CompactionTask,
    ExecutionBackend,
    ExecutionResult,
    PreparedJob,
)
from repro.core.statscache import IndexedCandidateCache
from repro.core.workers import ShardWorkSpec, burn_cpu
from repro.errors import ValidationError
from repro.fleet.model import FleetModel
from repro.units import DAY


def _key_for_index(model: FleetModel, index: int) -> CandidateKey:
    key = CandidateKey(
        database=f"tenant{int(model.database[index]):03d}",
        table=f"table{index:06d}",
        scope=CandidateScope.TABLE,
    )
    # Stash the table index on the interned key so hot paths resolve it
    # with one attribute read instead of a parse or a hashed lookup.
    object.__setattr__(key, "_fleet_index", index)
    return key


def _index_for_key(key: CandidateKey) -> int:
    index = getattr(key, "_fleet_index", None)
    if index is not None:
        return index
    if not key.table.startswith("table"):
        raise ValidationError(f"not a fleet candidate key: {key}")
    return int(key.table[len("table") :])


class FleetConnector(Connector):
    """Exposes fleet tables as table-scope candidates.

    Args:
        model: the fleet state.
        min_small_files: tables with fewer small files are not even listed
            (a cheap generation-time screen that keeps candidate volume
            manageable at fleet scale).
        stats_cache: optional incremental-observation
            :class:`~repro.core.statscache.IndexedCandidateCache`.  When
            set, observation is O(dirty tables): each lookup carries the
            table's ``stats_version`` as a freshness token, so entries
            self-evict exactly when the table wrote or was compacted, and
            the misses are rebuilt through a vectorised batch path.  Hits
            return the previously observed (and, after orient, annotated)
            candidate objects, so clean tables skip the trait recompute
            too.  Database-level quota utilisation is re-stamped on every
            hit (it drifts while tables stay clean), keeping cached
            observations exactly equal to fresh ones; the TTL fallback
            bounds staleness of anything else.

    Candidate keys are interned per table index (identity and database
    never change), so steady-state generation allocates no new key objects.
    """

    def worker_transport(self):
        from repro.core.transport import ColumnarTransport

        return ColumnarTransport(self)

    def __init__(
        self,
        model: FleetModel,
        min_small_files: int = 1,
        stats_cache: IndexedCandidateCache | None = None,
        observe_cost: int = 0,
    ) -> None:
        if stats_cache is not None and not isinstance(stats_cache, IndexedCandidateCache):
            raise ValidationError(
                "stats_cache must be an IndexedCandidateCache, "
                f"got {type(stats_cache).__name__}"
            )
        if observe_cost < 0:
            raise ValidationError(f"observe_cost must be >= 0, got {observe_cost}")
        self.model = model
        self.min_small_files = min_small_files
        self.stats_cache = stats_cache
        #: Per-candidate CPU units burned on every statistics (re)build
        #: (:func:`~repro.core.workers.burn_cpu`), emulating the
        #: collection cost — manifest parsing, file listing — a live
        #: connector pays.  Applied identically on the in-process and
        #: worker-process observe paths, so worker-mode comparisons stay
        #: honest.  0 (the default) disables the emulation entirely.
        self.observe_cost = observe_cost
        #: Interned keys by table index (None = not yet built).
        self._keys_by_index: list[CandidateKey | None] = []
        #: Consistent-hash digests per table index (uint64; grown lazily).
        self._digests = np.zeros(0, dtype=np.uint64)
        #: Last listing produced by this connector: (keys, indices).  The
        #: observe fast path recognises its own listing by identity and
        #: skips per-key index resolution.
        self._last_listing: tuple[list[CandidateKey], list[int]] | None = None

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: evict ``key``'s table from the cache."""
        if self.stats_cache is not None:
            self.stats_cache.invalidate_index(_index_for_key(key))

    def _key(self, index: int) -> CandidateKey:
        keys = self._keys_by_index
        if index >= len(keys):
            keys.extend([None] * (index + 1 - len(keys)))
        key = keys[index]
        if key is None:
            key = keys[index] = _key_for_index(self.model, index)
        return key

    def list_candidates(self, strategy: str = "table") -> list[CandidateKey]:
        if strategy != "table":
            raise ValidationError(
                "the fleet connector scopes candidates at table level only "
                f"(got strategy {strategy!r})"
            )
        small = self.model.small_files_per_table()
        eligible = np.nonzero(small >= self.min_small_files)[0].tolist()
        return self._keys_for_eligible(eligible)

    def list_candidates_sharded(
        self, strategy: str, n_shards: int, shard_index: int
    ) -> list[CandidateKey]:
        """Vectorised shard slice: one digest-mask pass over the fleet."""
        if strategy != "table":
            raise ValidationError(
                "the fleet connector scopes candidates at table level only "
                f"(got strategy {strategy!r})"
            )
        model = self.model
        self._ensure_digests(model.count)
        small = model.small_files_per_table()
        digests = self._digests[: model.count]
        mask = (small >= self.min_small_files) & (
            digests % np.uint64(n_shards) == np.uint64(shard_index)
        )
        return self._keys_for_eligible(np.nonzero(mask)[0].tolist())

    def _keys_for_eligible(self, eligible: list[int]) -> list[CandidateKey]:
        if not eligible:
            self._last_listing = ([], [])
            return []
        keys = self._keys_by_index
        if eligible[-1] >= len(keys):
            keys.extend([None] * (eligible[-1] + 1 - len(keys)))
        if any(keys[i] is None for i in eligible):
            for i in eligible:
                if keys[i] is None:
                    self._key(i)
        # C-speed multi-index pick over the interned key table.
        listed = (
            list(operator.itemgetter(*eligible)(keys))
            if len(eligible) > 1
            else [keys[eligible[0]]]
        )
        self._last_listing = (listed, eligible)
        return listed

    def _ensure_digests(self, count: int) -> None:
        """Consistent-hash digests (matching shard_for_key) for indices < count."""
        have = len(self._digests)
        if count <= have:
            return
        grown = np.zeros(count, dtype=np.uint64)
        grown[:have] = self._digests
        for index in range(have, count):
            digest = hashlib.blake2b(
                str(self._key(index)).encode("utf-8"), digest_size=8
            ).digest()
            grown[index] = int.from_bytes(digest, "big")
        self._digests = grown

    def observe(self, keys: list[CandidateKey]) -> list[Candidate]:
        if self.stats_cache is None:
            # One quota computation per cycle instead of per candidate: the
            # per-database utilisation is O(fleet size) to derive.
            quota = self.model.database_quota_utilization()
            return [
                Candidate(key=key, statistics=self._statistics(key, quota))
                for key in keys
            ]
        return self._observe_incremental(keys)

    def _split_cache_hits(
        self, keys: list[CandidateKey], indices: list[int], view, now: float
    ) -> tuple[list[Candidate | None], list[CandidateKey], list[int]]:
        """The single source of the cache hit-validity rule.

        A key is served from cache iff its slot's freshness token is
        within ``version_slack`` of the live version *and* the entry is
        younger than the TTL; hits get their database-level quota
        re-stamped in place (it drifts while the table stays clean), so
        cached observations stay exactly equal to fresh ones.  The
        shipped traits read only per-table file statistics — custom
        traits that read quota_utilization should not be combined with a
        stats cache.

        Shared by the in-process observe path and the process-worker
        export, so the two can never disagree about which keys need
        rebuilding — the worker modes' byte-identical cycle reports
        depend on exactly that.

        Returns:
            ``(placed, miss_keys, miss_indices, miss_positions)`` —
            ``placed`` holds the hit candidates with ``None`` holes at
            miss positions; the three miss lists describe the holes in
            order (keys, table indices, and positions within ``placed``).
        """
        count = self.model.count
        cache = self.stats_cache
        placed: list[Candidate | None] = [None] * len(keys)
        miss_keys: list[CandidateKey] = []
        miss_indices: list[int] = []
        miss_positions: list[int] = []
        if cache is None:
            for index in indices:
                if not 0 <= index < count:
                    raise ValidationError(f"fleet table index {index} out of range")
            return placed, list(keys), list(indices), list(range(len(keys)))
        cache.ensure_capacity(count)
        slots = cache.candidates
        tokens = cache.tokens
        stored_ats = cache.stored_ats
        ttl = cache.ttl_s
        slack = cache.version_slack
        versions, quota = view.versions, view.quota
        hits = 0
        expirations = 0
        for pos, (key, index) in enumerate(zip(keys, indices)):
            if not 0 <= index < count:
                raise ValidationError(f"fleet table index {index} out of range")
            candidate = slots[index]
            if (
                candidate is not None
                and 0 <= versions[index] - tokens[index] <= slack
                and now - stored_ats[index] < ttl
            ):
                hits += 1
                stats = candidate.statistics
                fresh_quota = quota[index]
                if stats.quota_utilization != fresh_quota:
                    object.__setattr__(stats, "quota_utilization", fresh_quota)
                placed[pos] = candidate
            else:
                if candidate is not None:
                    # Slot held an entry that failed the token/TTL check —
                    # the inline twin of IndexedCandidateCache.get's
                    # eviction accounting (the slot itself is reused in
                    # place by the rebuild, so no separate None store).
                    expirations += 1
                miss_keys.append(key)
                miss_indices.append(index)
                miss_positions.append(pos)
        cache.record_lookups(hits, len(miss_keys), expirations)
        return placed, miss_keys, miss_indices, miss_positions

    def _observe_incremental(self, keys: list[CandidateKey]) -> list[Candidate]:
        """Cache-first observation: only dirty tables rebuild statistics.

        The hit pass (:meth:`_split_cache_hits`) runs inline over the
        cache's slot lists (one list index + compare per key); stale slots
        reuse their Candidate object (statistics swapped, traits cleared
        for re-orientation), and fresh statistics come from the model's
        per-cycle :meth:`~repro.fleet.model.FleetModel.observe_view` —
        plain list reads shared across every shard of a sharded cycle.
        """
        model = self.model
        cache = self.stats_cache
        now = float(model.day) * DAY
        view = model.observe_view()
        indices = self._resolve_indices(keys)
        placed, miss_keys, miss_indices, miss_positions = self._split_cache_hits(
            keys, indices, view, now
        )
        if not miss_keys:
            return placed  # type: ignore[return-value] — no holes
        slots = cache.candidates
        tokens = cache.tokens
        stored_ats = cache.stored_ats
        versions = view.versions
        target = model.config.target_file_size
        build = CandidateStatistics.build_unchecked
        files, total_b = view.files, view.total_bytes
        small, small_b = view.small_files, view.small_bytes
        created, modified, quota = view.created_s, view.modified_s, view.quota
        observe_cost = self.observe_cost
        for key, index, pos in zip(miss_keys, miss_indices, miss_positions):
            if observe_cost:
                burn_cpu(observe_cost, str(key).encode("utf-8"))
            stats = build(
                file_count=files[index],
                total_bytes=total_b[index],
                small_file_count=small[index],
                small_file_bytes=small_b[index],
                target_file_size=target,
                partition_count=1,
                created_at=created[index],
                last_modified_at=modified[index],
                quota_utilization=quota[index],
            )
            stale = slots[index]
            if stale is not None:
                # Reuse the stale candidate in place: new statistics,
                # traits dropped so orient recomputes them.
                stale.statistics = stats
                stale.traits.clear()
                candidate = stale
            else:
                candidate = Candidate(key=key, statistics=stats)
                slots[index] = candidate
            tokens[index] = versions[index]
            stored_ats[index] = now
            placed[pos] = candidate
        return placed  # type: ignore[return-value] — all holes filled

    def _resolve_indices(self, keys: list[CandidateKey]) -> list[int]:
        """Table indices for ``keys``.

        Observing our own most recent listing (the common cycle path) skips
        per-key resolution: the listing's index list is already computed.
        """
        last = self._last_listing
        if last is not None and keys is last[0]:
            return last[1]
        return [_index_for_key(key) for key in keys]

    # --- process-mode shard workers ---------------------------------------------

    def export_columnar(
        self, keys: list[CandidateKey], shard_index: int, traits
    ) -> tuple[list[Candidate | None], ShardWorkSpec | None]:
        """Resolve cache hits locally; pack the misses into a shippable spec.

        The hit pass *is* :meth:`_split_cache_hits` — the same code the
        in-process path runs — so a key is shipped to a worker if and only
        if :meth:`_observe_incremental` would have rebuilt it.  The dirty
        rows of the memoised
        :meth:`~repro.fleet.model.FleetModel.observe_view` land in one
        int64/float64 block; the fleet model tracks no per-file sizes, so
        the block carries scalar columns only and rebuilt statistics have
        empty ``file_sizes`` — exactly like every other fleet observation
        path.
        """
        from repro.core.columnar import ColumnarMissBlock

        model = self.model
        now = float(model.day) * DAY
        view = model.observe_view()
        indices = self._resolve_indices(keys)
        placed, miss_keys, miss_indices, _ = self._split_cache_hits(
            keys, indices, view, now
        )
        if not miss_keys:
            return placed, None
        sliced = view.take(miss_indices)
        n = len(miss_keys)
        target = model.config.target_file_size
        block = ColumnarMissBlock.from_columns(
            {
                "file_count": sliced.files,
                "total_bytes": sliced.total_bytes,
                "small_file_count": sliced.small_files,
                "small_file_bytes": sliced.small_bytes,
                "target_file_size": [target] * n,
                "created_at": sliced.created_s,
                "last_modified_at": sliced.modified_s,
                "quota_utilization": sliced.quota,
            },
            n,
        )
        spec = ShardWorkSpec(
            shard_index=shard_index,
            keys=tuple(miss_keys),
            slots=tuple(miss_indices),
            tokens=tuple(sliced.versions),
            now=now,
            traits=traits,
            block=block,
            observe_cost=self.observe_cost,
        )
        return placed, spec

    def collect_statistics(self, key: CandidateKey) -> CandidateStatistics:
        return self._statistics(key, self.model.database_quota_utilization())

    def _statistics(self, key: CandidateKey, quota_by_db) -> CandidateStatistics:
        if self.observe_cost:
            burn_cpu(self.observe_cost, str(key).encode("utf-8"))
        model = self.model
        i = _index_for_key(key)
        if not 0 <= i < model.count:
            raise ValidationError(f"fleet table index {i} out of range")
        tiny = int(model.tiny_files[i])
        mid = int(model.mid_files[i])
        large = int(model.large_files[i])
        tiny_b = int(model.tiny_bytes[i])
        mid_b = int(model.mid_bytes[i])
        large_b = int(model.large_bytes[i])
        quota = quota_by_db[int(model.database[i])]
        return CandidateStatistics(
            file_count=tiny + mid + large,
            total_bytes=tiny_b + mid_b + large_b,
            small_file_count=tiny + mid,
            small_file_bytes=tiny_b + mid_b,
            target_file_size=model.config.target_file_size,
            file_sizes=(),
            partition_count=1,
            created_at=float(model.created_day[i]) * DAY,
            last_modified_at=float(model.last_write_day[i]) * DAY,
            quota_utilization=float(quota),
        )


class _FleetPreparedJob(PreparedJob):
    def __init__(self, model: FleetModel, task: CompactionTask, index: int) -> None:
        self._model = model
        self._task = task
        self._index = index
        self._started_at = 0.0

    def start(self) -> float:
        self._started_at = float(self._model.day) * DAY
        return 0.0

    def finish(self) -> ExecutionResult:
        model = self._model
        files_before = int(
            model.tiny_files[self._index]
            + model.mid_files[self._index]
            + model.large_files[self._index]
        )
        application = model.compact(self._index)
        files_after = int(
            model.tiny_files[self._index]
            + model.mid_files[self._index]
            + model.large_files[self._index]
        )
        return ExecutionResult(
            candidate=self._task.candidate.key,
            success=application.actual_reduction > 0,
            skipped=application.actual_reduction == 0,
            conflict_reason=None,
            started_at=self._started_at,
            finished_at=self._started_at,
            duration_s=0.0,
            gbhr=application.actual_gbhr,
            files_before=files_before,
            files_after=files_after,
            estimated_reduction=application.estimated_reduction,
            actual_reduction=application.actual_reduction,
            rewritten_bytes=application.rewritten_bytes,
            estimated_gbhr=application.estimated_gbhr,
        )


class FleetBackend(ExecutionBackend):
    """Applies selected candidates to the fleet model."""

    def __init__(self, model: FleetModel) -> None:
        self.model = model

    def prepare(self, task: CompactionTask) -> PreparedJob | None:
        index = _index_for_key(task.candidate.key)
        small = int(self.model.tiny_files[index] + self.model.mid_files[index])
        if small < 2:
            return None
        return _FleetPreparedJob(self.model, task, index)
