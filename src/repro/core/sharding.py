"""Scale-out control plane: sharded parallel OODA cycles.

The paper's deployment (§7) onboards thousands of tables per month while
holding cycle cadence fixed, so cycle latency must not grow linearly with
fleet size.  This module shards one logical AutoComp instance across N
per-shard :class:`~repro.core.pipeline.AutoCompPipeline` instances:

* candidate keys are **consistent-hashed** across shards
  (:func:`shard_for_key` — a stable content hash, so a key lands on the
  same shard in every cycle and every process);
* each shard runs the expensive **observe/orient** phases over only its
  slice — inline, on a persistent thread pool, or (for connectors that
  provide a :class:`~repro.core.transport.ColumnarTransport`) on a
  persistent **process pool** that sidesteps the GIL for CPU-bound
  observation — optionally backed by an incremental
  :class:`~repro.core.statscache.IndexedCandidateCache`;
* the **decide** phase runs either globally (``selection="global"``:
  per-shard candidates are merged back into generation order and ranked
  once, making the merged cycle *exactly* equivalent to an unsharded one)
  or locally (``selection="local"``: each shard ranks and selects under a
  split budget — :func:`split_selector` — the fully independent
  multi-worker deployment mode, decided inside the worker on process
  cycles);
* per-shard :class:`~repro.core.pipeline.CycleReport`\\ s are merged into a
  fleet-level report, and per-shard metrics land in scoped telemetry
  namespaces (``autocomp.shard00.…``).

Determinism (NFR2) is preserved in both modes: hashing is content-based,
merging follows generation order, and the act phase executes in a single
deterministic order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.candidates import Candidate, CandidateKey
from repro.core.pipeline import AutoCompPipeline, CycleReport
from repro.core.ranking import RankingPolicy
from repro.core.selection import AllSelector, BudgetSelector, Selector, TopKSelector
from repro.core.workers import (
    WORKER_MODES,
    ShardDecision,
    WorkerPool,
    run_shard_work,
)
from repro.errors import ValidationError, WorkerError
from repro.obs.tracing import Tracer, timed
from repro.simulation.simulator import Simulator
from repro.simulation.telemetry import RATIO_BOUNDS, Telemetry

#: Valid decide-phase placements.
SELECTION_MODES = ("global", "local")


def shard_for_key(key: CandidateKey, n_shards: int) -> int:
    """The shard owning ``key``: a stable content hash mod ``n_shards``.

    Uses BLAKE2b over the key's canonical string form, so assignment is
    independent of Python's per-process hash randomisation — the same key
    maps to the same shard across cycles, processes and machines.
    """
    if n_shards <= 0:
        raise ValidationError(f"n_shards must be positive, got {n_shards}")
    digest = hashlib.blake2b(str(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


def _split_count(total: int, n_shards: int) -> list[int]:
    base, extra = divmod(max(total, 0), n_shards)
    return [base + (1 if i < extra else 0) for i in range(n_shards)]


def split_selector(selector: Selector, n_shards: int) -> list[Selector]:
    """Split one selection budget into ``n_shards`` per-shard selectors.

    Top-k budgets distribute the k as evenly as possible (earlier shards
    take the remainder); GBHr budgets divide evenly.  Used by the local
    selection mode, where shards decide independently.

    Raises:
        ValidationError: for selector types without a known split rule —
            pass per-shard selectors explicitly instead.
    """
    if n_shards <= 0:
        raise ValidationError(f"n_shards must be positive, got {n_shards}")
    if isinstance(selector, TopKSelector):
        return [TopKSelector(k) for k in _split_count(selector.k, n_shards)]
    if isinstance(selector, BudgetSelector):
        caps: list[int | None]
        if selector.max_candidates is None:
            caps = [None] * n_shards
        else:
            caps = list(_split_count(selector.max_candidates, n_shards))
        return [
            BudgetSelector(
                selector.budget / n_shards,
                cost_trait=selector.cost_trait,
                max_candidates=cap,
                skip_unaffordable=selector.skip_unaffordable,
            )
            for cap in caps
        ]
    if isinstance(selector, AllSelector):
        return [AllSelector() for _ in range(n_shards)]
    raise ValidationError(
        f"no split rule for selector type {type(selector).__name__}; "
        "provide per-shard selectors explicitly"
    )


@dataclass
class ShardedCycleReport:
    """One fleet-level cycle: the merged view plus per-shard detail."""

    #: Fleet-level merged report (counts summed, selection in rank order,
    #: results shared with the act phase).
    report: CycleReport
    #: Per-shard reports (observation counts and each shard's share of the
    #: selection).
    shard_reports: list[CycleReport] = field(default_factory=list)
    #: Wall-clock seconds each shard spent in observe/orient.
    shard_observe_wall_s: list[float] = field(default_factory=list)
    #: Wall-clock seconds for the whole cycle.
    cycle_wall_s: float = 0.0

    @property
    def selected(self) -> list[CandidateKey]:
        """Fleet-level selection (delegates to the merged report)."""
        return self.report.selected


class ShardedPipeline:
    """N per-shard pipelines behind one fleet-level OODA cycle.

    All shards are expected to view the same world (their connectors list
    the same candidates) and to share filter/trait/decide configuration;
    the sharded control plane partitions the *work*, not the data.
    Candidate listing therefore happens once, through shard 0's connector,
    and the fleet-level :attr:`policy`, :attr:`selector` and
    :attr:`generation` are shard 0's — read live every cycle, so
    reconfiguring the shards (as
    :func:`~repro.core.promoter.apply_variant` does) reconfigures the
    fleet.

    Args:
        shards: the per-shard pipelines (their connectors typically carry
            stats caches for incremental observation).
        selection: ``"global"`` (merge, then rank/select once with shard
            0's policy and selector — exactly equivalent to the unsharded
            pipeline) or ``"local"`` (per-shard decide, with shard 0's
            selector split across the shards by :func:`split_selector`).
            Process cycles with local selection decide inside the
            workers: the worker answers with counts plus references to
            the selected candidates instead of every observed miss.
        merge_order: ``"generation"`` (default) rebuilds the unsharded
            candidate order before the global rank — correct for any
            policy; ``"any"`` concatenates per-shard results, which is
            cheaper and produces identical rankings for order-insensitive
            policies (every built-in policy normalises over the candidate
            *set* and ends in a key-tie-broken total-order sort, so input
            order never matters).
        workers: observe/orient execution mode — ``"threads"`` (the
            default: a persistent thread pool, works with any connector,
            overlaps numpy-released work) or ``"processes"`` (a persistent
            process pool for true multi-core CPU-bound observation; every
            shard connector must provide a
            :class:`~repro.core.transport.ColumnarTransport` through
            :meth:`~repro.core.connectors.Connector.worker_transport`).
            Both modes produce byte-identical cycle reports for the same
            inputs, so the choice is purely an execution decision.
        max_workers: pool width; defaults to
            ``min(len(shards), cpu_count)``; 1 runs shards inline.
        telemetry: fleet-level metric sink (per-shard metrics are recorded
            under ``autocomp.shard<i>`` scopes of this sink).
        tracer: optional :class:`repro.obs.tracing.Tracer`.  Each cycle
            produces one ``cycle → observe → shard → …`` span tree; in
            process mode the shard span's context ships inside the
            :class:`~repro.core.workers.ShardWorkSpec` and the worker's
            observe/decide spans are stitched back into this tracer.
            Assigning ``pipeline.tracer`` after construction also works
            (it propagates to every shard pipeline).

    The pool is part of the pipeline's lifecycle: spawned lazily on the
    first concurrent cycle, reused by every later cycle, and shut down by
    :meth:`close` (the pipeline is also a context manager).
    """

    def __init__(
        self,
        shards: Sequence[AutoCompPipeline],
        selection: str = "global",
        merge_order: str = "generation",
        workers: str = "threads",
        max_workers: int | None = None,
        telemetry: Telemetry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if not shards:
            raise ValidationError("ShardedPipeline needs at least one shard")
        if selection not in SELECTION_MODES:
            raise ValidationError(
                f"unknown selection mode {selection!r}; expected one of {SELECTION_MODES}"
            )
        if merge_order not in ("generation", "any"):
            raise ValidationError(
                f"unknown merge order {merge_order!r}; expected 'generation' or 'any'"
            )
        if workers not in WORKER_MODES:
            raise ValidationError(
                f"unknown worker mode {workers!r}; expected one of {WORKER_MODES}"
            )
        self.merge_order = merge_order
        self.shards = list(shards)
        self.selection = selection
        #: Per-shard worker transports (process mode only; thread and
        #: inline cycles never ship).
        self._transports: list = []
        if workers == "processes":
            self._transports = [shard.worker_transport() for shard in self.shards]
            unsupported = [
                type(shard.connector).__name__
                for shard, transport in zip(self.shards, self._transports)
                if transport is None
            ]
            if unsupported:
                raise ValidationError(
                    "workers='processes' needs every shard connector to "
                    "provide a worker transport (override "
                    "Connector.worker_transport); these do not: "
                    f"{sorted(set(unsupported))}. "
                    "Use the thread-pool fallback (workers='threads')."
                )
        self.workers = workers
        if max_workers is None:
            max_workers = min(len(self.shards), os.cpu_count() or 1)
        if max_workers <= 0:
            raise ValidationError("max_workers must be positive")
        self.max_workers = max_workers
        # One persistent worker pool: a fresh executor per cycle would pay
        # spawn cost every cycle.  Its executor spawns lazily — inline
        # pipelines (one shard or max_workers=1) never start one.
        self._pool = WorkerPool(mode=workers, max_workers=max_workers)
        for transport in self._transports:
            transport.bind_pool(self._pool)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._shard_telemetry = [
            self.telemetry.scoped(f"autocomp.shard{i:02d}") for i in range(len(self.shards))
        ]
        #: ``(selector, its split)``: local-mode split selectors, memoised
        #: on the selector object's identity (see :meth:`_split_selectors`).
        self._split_memo: tuple[Selector, list[Selector]] | None = None
        if selection == "local":
            self._split_selectors()  # an unsplittable selector fails here
        # Consistent hashing is stable per key, so assignments are memoised
        # by object id (connectors intern their keys): an int-keyed dict
        # hit per key per cycle instead of a content hash.  The value pins
        # the key object, so its id cannot be recycled while the entry
        # lives; the size guard in assign() bounds growth for connectors
        # that rebuild key objects every cycle.
        self._shard_of: dict[int, tuple[CandidateKey, int]] = {}
        #: Hard cap on the memo: connectors that rebuild key objects every
        #: cycle would otherwise grow it (and pin keys) without bound.
        self._shard_memo_limit = 262_144
        self._cycle_index = 0
        self._tracer: Tracer | None = None
        self.tracer = tracer

    @property
    def tracer(self) -> Tracer | None:
        """The fleet tracer; assigning one also hands it to every shard
        pipeline, so per-shard act phases emit rewrite spans into the same
        trace."""
        return self._tracer

    @tracer.setter
    def tracer(self, value: Tracer | None) -> None:
        self._tracer = value
        for shard in self.shards:
            shard.tracer = value

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def policy(self) -> RankingPolicy:
        """Fleet-level ranking policy (shard 0's)."""
        return self.shards[0].policy

    @property
    def selector(self) -> Selector:
        """Fleet-level selection budget (shard 0's)."""
        return self.shards[0].selector

    @property
    def generation(self) -> str:
        """Candidate-generation strategy (shard 0's)."""
        return self.shards[0].generation

    def _split_selectors(self) -> list[Selector]:
        """Local mode's per-shard selectors: :attr:`selector`, split.

        Memoised on the selector object's identity — the memo pins the
        object, so its id cannot be recycled — and rebuilt whenever
        shard 0 is handed a new selector.
        """
        selector = self.selector
        memo = self._split_memo
        if memo is None or memo[0] is not selector:
            memo = self._split_memo = (
                selector,
                split_selector(selector, len(self.shards)),
            )
        return memo[1]

    def close(self, timeout: float | None = None) -> None:
        """Shut the shard worker pool down (idempotent).

        Call when the pipeline is done (or use the pipeline as a context
        manager); a garbage-collected pipeline's pool is also shut down by
        its finalizer, so forgotten pipelines never strand processes.
        With a ``timeout``, the pool drains instead of blocking
        indefinitely (see :meth:`~repro.core.workers.WorkerPool.close`) —
        the daemon's graceful-shutdown path.  A later cycle respawns it.
        """
        self._pool.close(timeout=timeout)

    def __enter__(self) -> "ShardedPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: evict ``key`` from the cache of its owning shard.

        Routes through the same consistent hash that places the key's
        observation work (:func:`shard_for_key`), so service notification
        inboxes work unchanged against a sharded plane — a key's cached
        statistics always live (if anywhere) behind the connector of the
        shard that observes it.  With a connector shared across shards
        (the OpenHouse LST assembly) routing is a no-op distinction, but
        per-shard connectors (the fleet plane) genuinely need it.
        """
        self.shards[self._shard_for(key)].connector.invalidate(key)

    def _shard_for(self, key: CandidateKey) -> int:
        memo = self._shard_of
        entry = memo.get(id(key))
        if entry is None or entry[0] is not key:
            shard = shard_for_key(key, len(self.shards))
            if len(memo) >= self._shard_memo_limit:
                memo.clear()
            memo[id(key)] = (key, shard)
            return shard
        return entry[1]

    def assign(self, keys: Sequence[CandidateKey]) -> list[list[CandidateKey]]:
        """Partition ``keys`` across shards, preserving generation order."""
        if len(self._shard_of) > max(65536, 8 * len(keys)):
            self._shard_of.clear()
        shard_keys: list[list[CandidateKey]] = [[] for _ in self.shards]
        memo = self._shard_of
        n = len(self.shards)
        append_of = [bucket.append for bucket in shard_keys]
        for key in keys:
            entry = memo.get(id(key))
            if entry is None or entry[0] is not key:
                shard = shard_for_key(key, n)
                memo[id(key)] = (key, shard)
            else:
                shard = entry[1]
            append_of[shard](key)
        return shard_keys

    def run_cycle(
        self, now: float = 0.0, simulator: Simulator | None = None
    ) -> ShardedCycleReport:
        """Run one fleet-level OODA cycle across all shards.

        Args:
            now: current time; ignored when a simulator is given.
            simulator: event-driven act phase when provided.

        Returns:
            The merged :class:`ShardedCycleReport`.
        """
        if simulator is not None:
            now = simulator.now
        fleet_report = CycleReport(cycle_index=self._cycle_index, started_at=now)
        self._cycle_index += 1
        tracer = self._tracer
        telemetry = self.telemetry
        with timed(
            tracer,
            "cycle",
            "autocomp.hist.cycle_wall_s",
            telemetry,
            cycle_index=fleet_report.cycle_index,
            shards=len(self.shards),
        ) as cycle:
            # Generate: with order-insensitive merging each shard lists its own
            # consistent-hash slice directly (vectorised where the connector
            # supports it); otherwise list once globally and partition, keeping
            # the generation order for the merge.
            if self.merge_order == "any":
                keys: list[CandidateKey] = []
                shard_keys = [
                    shard.connector.list_candidates_sharded(
                        self.generation, len(self.shards), shard_index
                    )
                    for shard_index, shard in enumerate(self.shards)
                ]
                fleet_report.candidates_generated = sum(len(s) for s in shard_keys)
            else:
                keys = self.shards[0].connector.list_candidates(self.generation)
                fleet_report.candidates_generated = len(keys)
                shard_keys = self.assign(keys)
            shard_reports = [shard.begin_cycle(now) for shard in self.shards]
            for report, subset in zip(shard_reports, shard_keys):
                report.candidates_generated = len(subset)

            # Observe + orient each shard's slice (concurrently when possible).
            with timed(
                tracer,
                "observe",
                "autocomp.hist.observe_wall_s",
                telemetry,
                mode=self.workers,
            ) as observe:
                per_shard, observe_wall, decisions = self._observe_all(
                    shard_keys, shard_reports, now
                )
            telemetry.record(
                f"autocomp.fleet.observe_wall.{self.workers}", now, observe.wall_s
            )

            with timed(tracer, "decide", "autocomp.hist.decide_wall_s", telemetry):
                if self.selection == "global":
                    selected = self._decide_global(
                        keys, per_shard, fleet_report, shard_reports
                    )
                else:
                    selected = self._decide_local(
                        per_shard, fleet_report, shard_reports, decisions
                    )

            with timed(tracer, "act", "autocomp.hist.act_wall_s", telemetry):
                self._act_all(selected, fleet_report, shard_reports, simulator)

            for shard, report in zip(self.shards, shard_reports):
                shard.finish_cycle(report, now)
            cycle.note(selected=len(fleet_report.selected))
        sharded = ShardedCycleReport(
            report=fleet_report,
            shard_reports=shard_reports,
            shard_observe_wall_s=observe_wall,
            cycle_wall_s=cycle.wall_s,
        )
        self._record_cycle(sharded, now)
        return sharded

    def _act_all(
        self,
        selected,
        fleet_report: CycleReport,
        shard_reports: list[CycleReport],
        simulator: Simulator | None,
    ) -> None:
        """Act phase: one deterministic global pass, or one pass per shard."""
        if self.selection == "global":

            def invalidate_owner(result) -> None:
                # The act pass runs through shard 0, whose pipeline evicts
                # its own connector's cache; mirror the eviction to the
                # shard that actually owns (observes) the compacted key.
                if result.success:
                    owner = self._shard_for(result.candidate)
                    if owner != 0:
                        self.shards[owner].connector.invalidate(result.candidate)

            # One deterministic act pass in fleet rank order: shards
            # partition the observation work, not the executor.
            self.shards[0].act(
                selected, fleet_report, simulator=simulator, on_result=invalidate_owner
            )
        else:
            for shard, report, chosen in zip(self.shards, shard_reports, selected):
                shard.act(
                    chosen,
                    report,
                    simulator=simulator,
                    on_result=fleet_report.results.append,
                )

    # --- phases ----------------------------------------------------------------

    def _observe_all(
        self,
        shard_keys: list[list[CandidateKey]],
        shard_reports: list[CycleReport],
        now: float,
    ) -> tuple[list[list[Candidate]], list[float], list[ShardDecision | None]]:
        decisions: list[ShardDecision | None] = [None] * len(self.shards)
        concurrent = self.max_workers > 1 and len(self.shards) > 1
        if concurrent and self.workers == "processes":
            return self._observe_processes(shard_keys, shard_reports, now)
        observe_wall = [0.0] * len(self.shards)
        tracer = self._tracer
        # Pool threads have empty span stacks, so the per-shard spans
        # parent explicitly under the coordinator's observe span.
        parent = tracer.current() if tracer is not None else None

        def observe(i: int) -> list[Candidate]:
            with timed(
                tracer,
                "shard",
                parent=parent,
                detached=True,
                shard=i,
                mode="threads",
                keys=len(shard_keys[i]),
            ) as work:
                candidates = self.shards[i].observe_orient(
                    shard_keys[i], now, shard_reports[i]
                )
            observe_wall[i] = work.wall_s
            return candidates

        indices = range(len(self.shards))
        if concurrent:
            per_shard = self._pool.run_tasks(
                [lambda i=i: observe(i) for i in indices]
            )
        else:
            per_shard = [observe(i) for i in indices]
        return per_shard, observe_wall, decisions

    def _observe_processes(
        self,
        shard_keys: list[list[CandidateKey]],
        shard_reports: list[CycleReport],
        now: float,
    ) -> tuple[list[list[Candidate]], list[float], list[ShardDecision | None]]:
        """Observe/orient (and, under local selection, decide) on the process pool.

        Per shard: the *coordinator* resolves cache hits and packs the
        misses into a shippable :class:`~repro.core.workers.ShardWorkSpec`
        through the shard's
        :class:`~repro.core.transport.ColumnarTransport` (shared-memory
        arrays); a *worker process* computes the misses' traits; the
        coordinator merges the result — rebuilding the miss candidates
        from its retained arrays and replaying the worker's cache delta
        so invalidation tokens survive the round trip — then runs the
        (cheap) filter passes locally.  Under ``selection="local"`` the
        spec additionally carries the shard's policy, split selector,
        filter chains and resolved hits; the worker then returns its
        decision counts and selection references.
        Every value is produced by the same code paths as thread mode, so
        the modes' cycle reports are byte-identical.

        Shards with no misses skip the pool entirely (their wall time is
        the local hit-resolution cost, effectively the thread-mode number
        for a fully warm cycle); under local selection such shards decide
        on the coordinator — there is nothing to ship.

        A worker failure mid-cycle cancels and drains every outstanding
        shard future before surfacing a :class:`~repro.errors.WorkerError`
        (with the worker's exception chained), so no shard work is left
        in flight behind a half-begun cycle; transport resources
        (shared-memory segments) are released either way.
        """
        observe_wall = [0.0] * len(self.shards)
        decisions: list[ShardDecision | None] = [None] * len(self.shards)
        selectors = self._split_selectors() if self.selection == "local" else None
        placed_specs = []
        futures = {}
        per_shard: list[list[Candidate]] = []
        # Contract handshake, verified once per pool (cached): the worker
        # side must speak the same spec version before any spec ships;
        # raises WorkerError naming both sides otherwise.
        pool = self._pool
        pool.negotiate()
        transports = self._transports
        tracer = self._tracer
        # One coordinator-side "shard" span per shard covers export →
        # worker round trip → merge; its context ships inside the spec so
        # the worker's observe/decide spans stitch under it, and the
        # coordinator-side encode/decode walls land in "pack"/"unpack"
        # child spans plus the pack_wall_s/unpack_wall_s histograms.
        shard_spans: list = [None] * len(self.shards)
        shard_index = 0
        try:
            for shard_index, shard in enumerate(self.shards):
                if tracer is not None:
                    shard_spans[shard_index] = tracer.begin(
                        "shard",
                        detached=True,
                        shard=shard_index,
                        mode="processes",
                        keys=len(shard_keys[shard_index]),
                    )
                transport = transports[shard_index]
                with timed(
                    tracer,
                    "pack",
                    "autocomp.hist.pack_wall_s",
                    self.telemetry,
                    parent=shard_spans[shard_index],
                    detached=True,
                ) as pack:
                    placed, spec = transport.export(
                        shard_keys[shard_index], shard_index, shard.traits
                    )
                    if spec is not None and selectors is not None:
                        spec = transport.attach_decide(
                            spec,
                            placed,
                            shard.policy,
                            selectors[shard_index],
                            shard.stats_filters,
                            shard.trait_filters,
                        )
                if spec is not None and shard_spans[shard_index] is not None:
                    spec = dataclasses.replace(
                        spec, trace=shard_spans[shard_index].context
                    )
                observe_wall[shard_index] = pack.wall_s
                placed_specs.append((placed, spec))
                if spec is not None:
                    # Submit immediately: shard 0's workers compute while
                    # later shards are still exporting.
                    futures[shard_index] = pool.submit(run_shard_work, spec)
            returned = 0
            for shard_index, shard in enumerate(self.shards):
                placed, spec = placed_specs[shard_index]
                if spec is None:
                    candidates = [c for c in placed if c is not None]
                else:
                    result = futures.pop(shard_index).result()
                    if tracer is not None:
                        tracer.adopt(result.spans)
                    observe_wall[shard_index] += result.observe_wall_s
                    transport = transports[shard_index]
                    merge = (
                        transport.merge if spec.decide is None else transport.merge_decision
                    )
                    with timed(
                        tracer,
                        "unpack",
                        "autocomp.hist.unpack_wall_s",
                        self.telemetry,
                        parent=shard_spans[shard_index],
                        detached=True,
                    ) as unpack:
                        merged = merge(spec, placed, result)
                    observe_wall[shard_index] += unpack.wall_s
                    if spec.decide is not None:
                        returned += len(merged.selected)
                        decisions[shard_index] = merged
                        per_shard.append([])  # the decision replaces the survivors
                        self._end_shard_span(shard_spans, shard_index)
                        continue
                    returned += len(spec.keys)
                    candidates = merged
                candidates = shard.orient(
                    candidates, now, shard_reports[shard_index], only_missing=True
                )
                per_shard.append(candidates)
                self._end_shard_span(shard_spans, shard_index)
        except Exception as exc:
            # A failed export, worker task or merge must not strand the
            # sibling shards' futures: cancel what has not started, drain
            # what has, then surface one clear error.
            outstanding = [f for f in futures.values() if not f.done()]
            for future in futures.values():
                future.cancel()
            wait_futures(list(futures.values()))
            for i in range(len(shard_spans)):
                self._end_shard_span(shard_spans, i, error=str(exc))
            raise WorkerError(
                f"shard {shard_index} failed mid-cycle ({exc}); cancelled or "
                f"drained {len(outstanding)} outstanding shard task(s)"
            ) from exc
        finally:
            # Release shared transport resources (shm segments)
            # whether the cycle merged or failed; release is idempotent,
            # and the error path has already drained the futures that
            # read them.
            for (_, spec), transport in zip(placed_specs, transports):
                transport.release(spec)
        # Returned-candidate accounting: under local selection the
        # workers hand back O(selected) candidate references instead of
        # O(shard misses) observed candidates.
        self.telemetry.record("autocomp.fleet.returned_candidates", now, returned)
        return per_shard, observe_wall, decisions

    def _end_shard_span(self, shard_spans: list, index: int, **attrs) -> None:
        """Close (at most once) the coordinator-side span for shard ``index``."""
        span = shard_spans[index]
        if span is not None:
            shard_spans[index] = None
            self._tracer.end(span, **attrs)

    def _decide_global(
        self,
        keys: list[CandidateKey],
        per_shard: list[list[Candidate]],
        fleet_report: CycleReport,
        shard_reports: list[CycleReport],
    ) -> list[Candidate]:
        """Merge shard survivors, rank and select once."""
        if self.merge_order == "any":
            merged = [c for candidates in per_shard for c in candidates]
        else:
            # Rebuild generation order, id-keyed within one cycle (every
            # key object is alive for the whole merge) to avoid a Python-
            # level content hash per dict operation.
            by_key: dict[int, Candidate] = {}
            total = 0
            for candidates in per_shard:
                total += len(candidates)
                for candidate in candidates:
                    by_key[id(candidate.key)] = candidate
            lookup = by_key.get
            merged = [c for c in (lookup(id(key)) for key in keys) if c is not None]
            if len(merged) != total:
                # A connector returned candidates under fresh key objects;
                # fall back to content-keyed merging.
                by_content = {c.key: c for candidates in per_shard for c in candidates}
                merged = [
                    c for c in (by_content.get(key) for key in keys) if c is not None
                ]
        fleet_report.after_stats_filters = sum(r.after_stats_filters for r in shard_reports)
        fleet_report.after_trait_filters = len(merged)
        ranked = self.policy.rank(merged)
        fleet_report.ranked = len(ranked)
        selected = self.selector.select(ranked)
        fleet_report.selected = [c.key for c in selected]
        for shard_index, report in enumerate(shard_reports):
            report.ranked = len(per_shard[shard_index])
            report.selected = [
                key for key in fleet_report.selected if self._shard_for(key) == shard_index
            ]
        return selected

    def _decide_local(
        self,
        per_shard: list[list[Candidate]],
        fleet_report: CycleReport,
        shard_reports: list[CycleReport],
        decisions: list[ShardDecision | None] | None = None,
    ) -> list[list[Candidate]]:
        """Per-shard rank and select under split budgets.

        Shards whose worker already decided (``decisions[i]`` set) just
        adopt the worker's counts and selection; the rest rank/select here
        — the exact sequence the worker runs, so the two placements are
        value-identical.
        """
        selected: list[list[Candidate]] = []
        for i, (shard, local_selector, candidates, report) in enumerate(
            zip(self.shards, self._split_selectors(), per_shard, shard_reports)
        ):
            decision = decisions[i] if decisions is not None else None
            if decision is not None:
                report.after_stats_filters = decision.after_stats_filters
                report.after_trait_filters = decision.after_trait_filters
                report.ranked = decision.ranked
                chosen = decision.selected
            else:
                ranked = shard.policy.rank(candidates)
                report.ranked = len(ranked)
                chosen = local_selector.select(ranked)
            report.selected = [c.key for c in chosen]
            selected.append(chosen)
        fleet_report.after_stats_filters = sum(r.after_stats_filters for r in shard_reports)
        fleet_report.after_trait_filters = sum(r.after_trait_filters for r in shard_reports)
        fleet_report.ranked = sum(r.ranked for r in shard_reports)
        fleet_report.selected = [key for r in shard_reports for key in r.selected]
        return selected

    # --- telemetry -------------------------------------------------------------

    def _record_cycle(self, sharded: ShardedCycleReport, now: float) -> None:
        report = sharded.report
        self.telemetry.record("autocomp.fleet.candidates", now, report.candidates_generated)
        self.telemetry.record("autocomp.fleet.selected", now, len(report.selected))
        self.telemetry.record("autocomp.fleet.cycle_wall_s", now, sharded.cycle_wall_s)
        self.telemetry.increment("autocomp.fleet.cycles")
        for scoped, shard_report, wall in zip(
            self._shard_telemetry, sharded.shard_reports, sharded.shard_observe_wall_s
        ):
            scoped.record("candidates", now, shard_report.candidates_generated)
            scoped.record("after_trait_filters", now, shard_report.after_trait_filters)
            scoped.record("selected", now, len(shard_report.selected))
            scoped.record("observe_wall_s", now, wall)
        self._record_cache_hit_ratio(now)

    def _record_cache_hit_ratio(self, now: float) -> None:
        """Surface the shard stats caches' aggregate hit ratio per cycle."""
        hits = misses = 0.0
        seen: set[int] = set()
        for shard in self.shards:
            counters = shard.connector.cache_counters()
            if counters is None:
                continue
            cache_id = counters.get("id")
            if cache_id is not None:
                if cache_id in seen:  # shards may share one cache object
                    continue
                seen.add(cache_id)
            hits += counters.get("hits", 0)
            misses += counters.get("misses", 0)
        total = hits + misses
        if total <= 0:
            return
        ratio = hits / total
        self.telemetry.record("autocomp.fleet.cache_hit_ratio", now, ratio)
        self.telemetry.observe(
            "autocomp.hist.cache_hit_ratio", ratio, bounds=RATIO_BOUNDS
        )
