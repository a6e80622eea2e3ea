"""Incremental observation: the candidate cache behind the observe phase.

The paper's deployment (§7) runs daily OODA cycles over tens of thousands
of tables, but only a fraction of the fleet writes on any given day.
Re-collecting :class:`~repro.core.candidates.CandidateStatistics` for every
candidate every cycle makes observation O(fleet size); caching the
observed candidates of *clean* tables makes it O(dirty tables) instead.

Invalidation has three independent sources, mirroring how a deployment
learns about writes:

* **write events** — the :class:`~repro.core.service.AutoCompService`
  notification inbox (§5's decoupled optimize-after-write hooks) drains
  into :meth:`~repro.core.connectors.Connector.invalidate`, which maps the
  key's table onto :meth:`IndexedCandidateCache.invalidate_index`;
* **version tokens** — connectors read a cheap per-table change counter
  (the fleet model's ``stats_version`` array, or an LST table's metadata
  ``version``) and pass it to :meth:`IndexedCandidateCache.get`; a
  mismatch evicts the entry without any event plumbing;
* **TTL fallback** — entries older than ``ttl_s`` expire, bounding the
  staleness of slowly varying inputs (such as the §7 quota utilisation,
  which shifts as *other* tables in the database grow) even when no write
  event arrives.

Statistics objects are frozen dataclasses and traits are pure functions
of them, so serving the cached candidate itself is safe — the same values
a fresh observation of unchanged state would produce (connectors re-stamp
the database-level quota on hits), which is what keeps cached cycles
byte-identical to cold ones (NFR2).
"""

from __future__ import annotations

import math
import threading

from repro.core.candidates import Candidate
from repro.errors import ValidationError


class IndexedCandidateCache:
    """Dense, index-addressed cache of observed candidates.

    Connectors address candidates by a dense integer index (the fleet's
    table index, or the catalog connector's interned key slot), so the
    cache keeps flat per-index slots: freshness is a single integer-token comparison per lookup, and
    the cached value is the whole observed :class:`Candidate` — which the
    pipeline annotates *in place* during orient, so a hit skips both the
    statistics build and the trait recompute on the next cycle.  That is
    what makes a warm cycle O(dirty tables) end to end.

    Invalidation has the module's three sources: write events
    (:meth:`invalidate_index`), version tokens (a stale token on lookup
    evicts), and a TTL fallback bounding the staleness of slowly varying
    statistics such as quota utilisation.

    Candidate reuse makes entries private to one pipeline's configuration:
    a cache must not be shared between pipelines with different trait
    registries.

    Args:
        ttl_s: maximum entry age in seconds (``math.inf`` disables).

    Attributes:
        hits: lookups served from the cache.
        misses: lookups that found no usable entry.
        invalidations: entries dropped by :meth:`invalidate_index`.
        expirations: entries dropped by TTL or token mismatch.
    """

    def __init__(self, ttl_s: float = math.inf) -> None:
        if ttl_s <= 0:
            raise ValidationError(f"ttl_s must be positive, got {ttl_s}")
        self.ttl_s = ttl_s
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.expirations = 0
        self._candidates: list[Candidate | None] = []
        self._tokens: list[int] = []
        self._stored_at: list[float] = []
        # Shards observing on a thread pool may share one cache (their
        # index slices are disjoint): growth and bulk-counter updates are
        # the only cross-slot mutations, so they take this lock.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for c in self._candidates if c is not None)

    def ensure_capacity(self, count: int) -> None:
        """Grow the slot arrays to hold indices ``0..count-1`` (thread-safe)."""
        # Lock-free fast path: _stored_at is extended *last* under the
        # lock, so its length bounds all three lists from below.
        if count <= len(self._stored_at):  # repro-lint: disable=RL001 -- append-only growth; _stored_at extended last under the lock bounds all three lists from below
            return
        with self._lock:
            grow = count - len(self._candidates)
            if grow > 0:
                self._candidates.extend([None] * grow)
                self._tokens.extend([-1] * grow)
                self._stored_at.extend([-math.inf] * grow)

    def record_lookups(self, hits: int, misses: int, expirations: int = 0) -> None:
        """Bulk counter update for connectors classifying inline (thread-safe).

        ``expirations`` counts the misses whose slot held an entry that
        failed the token/TTL check — the inline twin of the eviction
        accounting :meth:`get` does itself.
        """
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.expirations += expirations

    # Bulk accessors: vectorised connectors run the validity check inline
    # over these parallel lists (a method call per lookup would dominate a
    # warm cycle).  Treat them as read/write slots, never resize them —
    # use :meth:`ensure_capacity`; update ``hits``/``misses`` in bulk.

    @property
    def candidates(self) -> list[Candidate | None]:
        """Slot storage: the cached candidate per index (None = empty)."""
        return self._candidates  # repro-lint: disable=RL001 -- bulk accessor hands out the live storage; shards own disjoint slices

    @property
    def tokens(self) -> list[int]:
        """Slot storage: freshness token each entry was stored under."""
        return self._tokens  # repro-lint: disable=RL001 -- bulk accessor hands out the live storage; shards own disjoint slices

    @property
    def stored_ats(self) -> list[float]:
        """Slot storage: observation time of each entry (for TTL)."""
        return self._stored_at  # repro-lint: disable=RL001 -- bulk accessor hands out the live storage; shards own disjoint slices

    def get(self, index: int, now: float = 0.0, token: int = 0) -> Candidate | None:
        """The cached candidate at ``index``, or None on a miss.

        An entry is valid iff its stored token equals ``token`` and it is
        younger than the TTL; stale entries are evicted.

        Thread-sharded connectors call this concurrently for disjoint
        indices (e.g. the catalog connector's per-key lookups), so the
        shared counters are updated under the lock — the slot accesses
        themselves need none, because shards own disjoint slices.
        """
        # Slot accesses below are deliberately lock-free: shards own
        # disjoint index slices (see the class docstring), so no two
        # threads ever touch the same slot.
        if index >= len(self._candidates):  # repro-lint: disable=RL001 -- shards own disjoint slices; lists only grow
            with self._lock:
                self.misses += 1
            return None
        candidate = self._candidates[index]  # repro-lint: disable=RL001 -- shards own disjoint slices
        if (
            candidate is None
            or self._tokens[index] != token  # repro-lint: disable=RL001 -- shards own disjoint slices
            or now - self._stored_at[index] >= self.ttl_s  # repro-lint: disable=RL001 -- shards own disjoint slices
        ):
            expired = candidate is not None
            if expired:
                self._candidates[index] = None  # repro-lint: disable=RL001 -- shards own disjoint slices
            with self._lock:
                if expired:
                    self.expirations += 1
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return candidate

    def put(self, index: int, candidate: Candidate, now: float = 0.0, token: int = 0) -> None:
        """Store ``candidate`` at ``index`` under freshness ``token``."""
        self.ensure_capacity(index + 1)
        self._candidates[index] = candidate  # repro-lint: disable=RL001 -- shards own disjoint slices; growth is locked in ensure_capacity
        self._tokens[index] = token  # repro-lint: disable=RL001 -- shards own disjoint slices
        self._stored_at[index] = now  # repro-lint: disable=RL001 -- shards own disjoint slices

    def apply_delta(self, delta, candidates: list[Candidate]) -> int:
        """Merge a shard worker's :class:`~repro.core.workers.CacheDelta`.

        Process-mode shard workers observe in another address space, so
        their cache writes would be lost with the worker's memory;
        replaying the delta here keeps invalidation tokens alive across
        the round trip.  Slots are integer indices and the stored value is
        the whole oriented candidate, so after the merge the next cycle
        reuses the worker's observation *and* its trait computation.
        Shards own disjoint index slices, so concurrent merges never race
        on a slot.

        Returns:
            Entries written.
        """
        if len(delta.slots) != len(candidates):
            raise ValidationError(
                f"cache delta has {len(delta.slots)} slots for "
                f"{len(candidates)} candidates"
            )
        for index, token, candidate in zip(delta.slots, delta.tokens, candidates):
            self.put(index, candidate, now=delta.stored_at, token=token)
        return len(candidates)

    def invalidate_index(self, index: int) -> bool:
        """Write-event eviction; returns whether an entry existed."""
        if index >= len(self._candidates) or self._candidates[index] is None:  # repro-lint: disable=RL001 -- shards own disjoint slices; lists only grow
            return False
        self._candidates[index] = None  # repro-lint: disable=RL001 -- shards own disjoint slices
        with self._lock:
            self.invalidations += 1
        return True

    def clear(self) -> None:
        """Drop all entries in place (counters and aliases are preserved).

        Mutates the existing slot lists rather than rebinding them, so
        holders of the bulk accessors keep observing the live storage.
        """
        with self._lock:
            del self._candidates[:]
            del self._tokens[:]
            del self._stored_at[:]

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0 when nothing was looked up)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def counters_snapshot(self) -> dict[str, int]:
        """All four counters read atomically under the lock.

        A caller sampling ``hits``/``misses``/... attribute-by-attribute can
        interleave with a concurrent lookup and report a torn state (e.g.
        a hit counted but not yet its lookup); telemetry paths use this
        instead.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "expirations": self.expirations,
            }
