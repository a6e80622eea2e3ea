"""The worker transport: how one shard's work crosses a process boundary.

:class:`ColumnarTransport` is the coordinator half of the process-worker
contract (:mod:`repro.core.workers`).  The sharded pipeline drives five
calls per shard and cycle: ``export`` a shard's keys into hits + a
picklable spec, ``attach_decide`` the decide phase, ``merge`` /
``merge_decision`` a worker's answer back, ``release`` the spec's shared
resources.

The encoding is zero-copy (:mod:`repro.core.columnar`): flat arrays in
shared memory out, trait matrices and selection references back, with
every miss riding the cache delta so process-mode caches stay as warm as
thread-mode ones.  A connector feeds process workers exactly when its
:meth:`~repro.core.connectors.Connector.worker_transport` returns a
transport; the :class:`~repro.core.workers.WorkerPool` then verifies, once
per pool (:meth:`~repro.core.workers.WorkerPool.negotiate`), that the
worker side runs the same spec version before any spec ships.
"""

from __future__ import annotations

import dataclasses

from repro.core.candidates import Candidate
from repro.core.columnar import ColumnarHitPayload
from repro.core.workers import ShardDecideSpec, ShardDecision, ShardWorkSpec
from repro.errors import ValidationError


class ColumnarTransport:
    """Zero-copy encoding: flat arrays in shared memory, references back.

    Export packs the miss observations into a
    :class:`~repro.core.columnar.ColumnarMissBlock` (one shared-memory
    segment per spec) via the connector's ``export_columnar`` hook; the
    worker reads the coordinator's bytes in place and answers with a
    trait matrix plus — under local selection — selection references and a
    cache delta covering *every* miss.  The coordinator rebuilds miss
    candidates from its **retained** export arrays, so no candidate
    object crosses the boundary in either direction, and its caches end
    the cycle exactly as warm as a thread-mode cycle would leave them.

    Hit statistics ship as scalar columns plus the precomputed trait
    matrix; per-file sizes and custom statistics stay behind (hits
    carrying custom statistics fall back to object pickling).  A custom
    ``stats_filter`` that reads ``file_sizes`` therefore sees empty sizes
    on worker-side hits — run such filters under ``selection="global"``
    or on threads, which keep the decide phase on the coordinator.

    A transport is bound to one connector and optionally to the
    :class:`~repro.core.workers.WorkerPool` executing its specs
    (:meth:`bind_pool` lets the pool track shared resources for
    crash-safe cleanup).
    """

    def __init__(self, connector) -> None:
        self.connector = connector
        self._pool = None

    def bind_pool(self, pool) -> None:
        """Attach the executing pool so shared resources survive crashes."""
        self._pool = pool

    def export(self, keys: list, shard_index: int, traits) -> tuple[list, ShardWorkSpec | None]:
        """Split ``keys`` into local cache hits and a shippable spec.

        Returns ``(placed, spec)``: ``placed`` is the generation-order
        candidate list with ``None`` holes at miss positions; ``spec``
        covers the holes in order (``None`` when everything hit).
        """
        placed, spec = self.connector.export_columnar(keys, shard_index, traits)
        if spec is not None and self._pool is not None:
            self._pool.track_resource(spec.block)
        return placed, spec

    def attach_decide(
        self, spec: ShardWorkSpec, placed: list, policy, selector, stats_filters, trait_filters
    ) -> ShardWorkSpec:
        """Extend a spec with the worker-side decide phase."""
        names = tuple(spec.traits.names())
        payload = ColumnarHitPayload.try_pack(placed, names)
        if payload is not None and self._pool is not None:
            self._pool.track_resource(payload)
        decide = ShardDecideSpec(
            policy=policy,
            selector=selector,
            stats_filters=tuple(stats_filters),
            trait_filters=tuple(trait_filters),
            hits=() if payload is not None else tuple(placed),
            hits_payload=payload,
        )
        return dataclasses.replace(spec, decide=decide)

    def _rebuild(self, spec: ShardWorkSpec, result) -> list[Candidate]:
        """Miss candidates from the retained arrays + the returned matrix.

        Checks the result's shape against the spec first: a short matrix
        or delta would otherwise be truncated silently by the zips below
        and surface much later as a bare ``StopIteration``/``IndexError``.
        """
        payload = result.columnar
        names = tuple(payload.trait_names)
        n = len(spec.keys)
        shape = getattr(payload.matrix, "shape", None)
        if shape != (n, len(names)):
            raise ValidationError(
                f"shard {spec.shard_index} result carries a trait matrix of "
                f"shape {shape} for {n} miss keys and {len(names)} traits"
            )
        expected = tuple(spec.traits.names())
        if names != expected:
            raise ValidationError(
                f"shard {spec.shard_index} result carries traits {names}, "
                f"expected {expected}"
            )
        delta = result.cache_delta
        if len(delta.slots) != n or len(delta.tokens) != n:
            raise ValidationError(
                f"shard {spec.shard_index} result carries a cache delta of "
                f"{len(delta.slots)} slots / {len(delta.tokens)} tokens for "
                f"{n} miss keys"
            )
        statistics = spec.block.statistics_batch()  # type: ignore[attr-defined]
        rows = payload.matrix.tolist()
        return [
            Candidate(key=key, statistics=stats, traits=dict(zip(names, row)))
            for key, stats, row in zip(spec.keys, statistics, rows)
        ]

    def merge(self, spec: ShardWorkSpec, placed: list, result) -> list[Candidate]:
        """Fill ``placed``'s holes from a worker result; absorb its cache delta."""
        rebuilt = self._rebuild(spec, result)
        self.connector.store_worker_observations(result.cache_delta, rebuilt)
        fill = iter(rebuilt)
        return [c if c is not None else next(fill) for c in placed]

    def merge_decision(self, spec: ShardWorkSpec, placed: list, result) -> ShardDecision:
        """Resolve a worker's decide answer into a decision with real candidates."""
        rebuilt = self._rebuild(spec, result)
        payload = result.columnar
        refs = payload.selected or ()
        if len(payload.scores) != len(refs):
            raise ValidationError(
                f"shard {spec.shard_index} result carries {len(payload.scores)} "
                f"scores for {len(refs)} selected references"
            )
        for origin, position in refs:
            if origin == "hit":
                valid = 0 <= position < len(placed) and placed[position] is not None
            else:
                valid = origin == "miss" and 0 <= position < len(rebuilt)
            if not valid:
                raise ValidationError(
                    f"shard {spec.shard_index} result selects "
                    f"{(origin, position)!r}, outside its {len(placed)} "
                    f"placed candidates / {len(rebuilt)} misses"
                )
        self.connector.store_worker_observations(result.cache_delta, rebuilt)
        selected: list[Candidate] = []
        hit_selected: list[Candidate] = []
        for (origin, position), score in zip(refs, payload.scores):
            if origin == "hit":
                candidate = placed[position]
                hit_selected.append(candidate)
            else:
                candidate = rebuilt[position]
            candidate.score = score
            selected.append(candidate)
        # Selected hits are the coordinator's own cached candidates; a
        # non-reusing cache hands them over without traits (the worker
        # annotated its transient copies, which never cross back), so the
        # act phase's trait reads need them recomputed here — same
        # registry, same statistics, hence bit-identical values.
        spec.traits.annotate_all(hit_selected, only_missing=True)
        worker = result.decision
        return ShardDecision(
            after_stats_filters=worker.after_stats_filters,
            after_trait_filters=worker.after_trait_filters,
            ranked=worker.ranked,
            selected=selected,
        )

    def release(self, spec: ShardWorkSpec | None) -> None:
        """Free the spec's shared resources (idempotent, crash-safe)."""
        if spec is None:
            return
        spec.block.dispose()  # type: ignore[attr-defined]
        if self._pool is not None:
            self._pool.untrack_resource(spec.block)
        if spec.decide is not None and spec.decide.hits_payload is not None:
            payload = spec.decide.hits_payload
            payload.dispose()  # type: ignore[attr-defined]
            if self._pool is not None:
                self._pool.untrack_resource(payload)
