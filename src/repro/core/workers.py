"""Shard workers: the process boundary of the scale-out control plane.

The sharded control plane (:mod:`repro.core.sharding`) partitions the
observe/orient work of one OODA cycle across shards.  Threads overlap the
numpy-released portions of that work, but CPU-bound statistics
construction and trait math serialize on the GIL — so true multi-core
cycles need shard work to cross a *process* boundary, and everything that
crosses must become an explicit, versioned, picklable contract:

* :class:`ShardWorkSpec` — one shard's unit of work: the candidate keys
  that missed the coordinator's stats cache, their observation inputs as
  a :class:`~repro.core.columnar.ColumnarMissBlock` (flat arrays in shared
  memory), the cache slot indices and freshness **tokens** those keys map
  to, and the orient-phase trait registry;
* :class:`ShardCycleResult` — what comes back: a trait matrix (one row
  per miss key) plus a :class:`CacheDelta` covering every miss, so the
  coordinator rebuilds the observed candidates from its *own* retained
  arrays and its :class:`~repro.core.statscache.IndexedCandidateCache`
  learns the worker's observations (the next cycle stays O(dirty tables)
  in every worker mode);
* :func:`run_shard_work` — the module-level worker entry point (process
  pools can only ship module-level callables).

Only the *miss* slice crosses the boundary: the coordinator resolves cache
hits locally (a token compare per key), so steady-state specs stay small.
:class:`~repro.core.transport.ColumnarTransport` packs specs and merges
results on the coordinator side.

The decide phase can cross the boundary too — but only for *local*
selection.  Global selection must see every shard's survivors at once, so
it always decides on the coordinator; a ``selection="local"`` shard, by
contrast, ranks and selects under its own split budget, which a worker can
do entirely in-process when the spec carries a :class:`ShardDecideSpec`
(picklable policy + selector + filter chains + the coordinator-resolved
cache hits) — which every local-selection process cycle does.  The worker
then answers with counts plus *references* to the selected candidates,
which the coordinator resolves against its own candidate lists.  Either
way the cycle reports stay byte-identical to thread/inline mode
(property-tested).

:class:`WorkerPool` is the persistent executor behind both the sharded
pipeline and the Policy Lab's what-if sweeps
(:class:`~repro.replay.whatif.WhatIfRunner`): spawned once, reused across
cycles to amortize fork/spawn cost, shut down via :meth:`WorkerPool.close`
(or a ``weakref`` finalizer if the owner is garbage-collected first).
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import weakref
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.candidates import Candidate, CandidateKey
from repro.core.filters import CandidateFilter, apply_filters
from repro.core.ranking import RankingPolicy
from repro.core.selection import Selector
from repro.core.traits import TraitRegistry
from repro.errors import ValidationError, WorkerError

#: Supported shard-worker execution modes.  ``threads`` is the default —
#: it needs no picklable connector snapshot and works on every platform;
#: ``processes`` is the true multi-core mode for CPU-bound observe work.
WORKER_MODES = ("threads", "processes")

#: Contract version stamped on every spec/result; a coordinator refuses a
#: result whose version it does not understand (mixed-version pools after
#: an upgrade must fail loudly, not corrupt caches).  Version 2 added the
#: catalog-snapshot observation payload and the worker-side decide
#: contract (:class:`ShardDecideSpec` / :class:`ShardDecision`).
#: Version 3 added span propagation: ``ShardWorkSpec.trace`` carries the
#: coordinator's span context in, ``ShardCycleResult.spans`` carries the
#: worker-side observe/decide spans back.
#: Version 4 added transport negotiation and the columnar payloads
#: (:mod:`repro.core.columnar`), and moved version checks into the
#: :meth:`WorkerPool.negotiate` handshake.
#: Version 5 made the columnar encoding the only one: specs carry a
#: :class:`~repro.core.columnar.ColumnarMissBlock`, results a trait matrix.
WORK_SPEC_VERSION = 5


@dataclass(frozen=True)
class TransportContract:
    """One side's worker contract: the spec/result version it speaks.

    The coordinator's :meth:`WorkerPool.negotiate` compares its own
    contract against one fetched from a live worker before the first spec
    ships — the single handshake that replaced per-object ``version:``
    field checks (mixed-version pools after an upgrade must fail loudly,
    with both sides named, not corrupt caches one result at a time).
    """

    version: int


def describe_contract() -> TransportContract:
    """This build's worker contract (module-level: pools must pickle it)."""
    return TransportContract(version=WORK_SPEC_VERSION)


def process_workers_available() -> bool:
    """Whether this platform can run process-mode shard workers safely.

    Process mode leans on ``fork`` so workers inherit the imported modules
    (spawn/forkserver re-import the world — and re-run ``__main__`` — per
    worker, which both dwarfs a cycle and breaks script/REPL callers).
    Restricted to Linux: macOS exposes ``os.fork`` but forking after any
    thread has started crashes in system frameworks, and Windows has no
    fork at all — both stay on the thread-pool fallback.  Forked children
    here only ever touch the pool's own freshly created pipes/queues (the
    classic fork-after-threads deadlocks involve re-using the parent's
    locked state, which :func:`run_shard_work` never does).
    """
    return sys.platform.startswith("linux") and hasattr(os, "fork")


def burn_cpu(units: int, seed: bytes = b"observe") -> int:
    """Deterministically burn ``units`` rounds of CPU; returns a checksum.

    Emulates the statistics-collection cost a real connector pays per
    candidate (manifest parsing, file listing, column-stat decoding) that
    the in-memory fleet model skips.  Pure CPU with no allocation, so it
    holds the GIL — which is the point: it makes observe workloads
    CPU-bound the way production ones are, letting benchmarks compare
    worker modes honestly.
    """
    digest = seed
    for _ in range(max(units, 0)):
        digest = hashlib.blake2b(digest, digest_size=16).digest()
    return digest[0]


@dataclass(frozen=True)
class CacheDelta:
    """A worker's cache updates, replayed into the coordinator's cache.

    Position-aligned with the result's candidates: entry ``i`` says "store
    candidate ``i`` under slot ``slots[i]`` with freshness ``tokens[i]``,
    observed at ``stored_at``".  Slots are the dense integer indices of
    the connector's :class:`~repro.core.statscache.IndexedCandidateCache`
    (a connector without a cache drops the delta).
    """

    slots: tuple = ()
    tokens: tuple = ()
    stored_at: float = 0.0

    def __len__(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class ShardDecideSpec:
    """The decide phase, shipped into a worker (``selection="local"`` only).

    Attributes:
        policy: the shard's ranking policy (picklable — every built-in
            policy is plain data).
        selector: the shard's *split* selection budget.
        stats_filters: post-observe filter chain.
        trait_filters: post-orient filter chain.
        hits: the coordinator-resolved candidate list in generation order,
            with ``None`` holes at the spec's miss positions — the worker
            fills the holes with its own observations, so rank/select see
            the exact candidate set the coordinator would have.
        hits_payload: columnar alternative to ``hits``
            (:class:`repro.core.columnar.ColumnarHitPayload`): the same
            generation-order list shipped as scalar statistic arrays plus
            the already-computed trait matrix, so hit ``Candidate``
            objects never cross the boundary.  Mutually exclusive with a
            non-empty ``hits``.
    """

    policy: RankingPolicy
    selector: Selector
    stats_filters: tuple[CandidateFilter, ...] = ()
    trait_filters: tuple[CandidateFilter, ...] = ()
    hits: tuple = ()
    hits_payload: object | None = None


@dataclass
class ShardDecision:
    """A worker's decide-phase outcome (mirrors the CycleReport fields)."""

    after_stats_filters: int = 0
    after_trait_filters: int = 0
    ranked: int = 0
    #: Selected candidates in rank order.  Empty in a worker's answer (the
    #: selection crosses back as references); filled by the coordinator.
    selected: list[Candidate] = field(default_factory=list)


@dataclass(frozen=True)
class ShardWorkSpec:
    """One shard's picklable unit of observe/orient (and optionally decide) work.

    Attributes:
        version: contract version (:data:`WORK_SPEC_VERSION`).
        shard_index: which shard this work belongs to.
        keys: candidate keys that missed the coordinator's cache, in
            generation order.
        slots: cache slot per key (int index or the key itself).
        tokens: freshness token per key (what the cache delta stores, so
            invalidation state survives the round trip).
        now: observation time (stamped on the cache delta).
        traits: the orient-phase registry (applied in the worker — trait
            math is the CPU-bound half of orientation).
        block: the keys' observation inputs, one row per key — a
            :class:`~repro.core.columnar.ColumnarMissBlock` whose arrays
            the worker reads in place and the coordinator retains to
            rebuild the observed candidates on merge.
        observe_cost: per-candidate CPU units handed to :func:`burn_cpu`,
            emulating real statistics-collection cost.
        decide: when set, the worker runs the full local decide phase
            after observe/orient and answers with a :class:`ShardDecision`
            plus selection references.
        trace: when set, the coordinator's span context for this shard
            (:class:`repro.obs.tracing.SpanContext`); the worker records
            its observe/decide spans under it and ships them back in
            :attr:`ShardCycleResult.spans` so per-process timings stitch
            into one coordinator trace.
    """

    shard_index: int
    keys: tuple[CandidateKey, ...]
    slots: tuple
    tokens: tuple
    now: float
    traits: TraitRegistry
    block: object
    observe_cost: int = 0
    decide: ShardDecideSpec | None = None
    trace: object | None = None
    version: int = WORK_SPEC_VERSION

    def __post_init__(self) -> None:
        n = len(self.keys)
        if len(self.block) != n:  # type: ignore[arg-type]
            raise ValidationError(
                f"shard work block has {len(self.block)} rows "  # type: ignore[arg-type]
                f"for {n} keys"
            )
        if len(self.slots) != n or len(self.tokens) != n:
            raise ValidationError(
                f"shard work spec slots/tokens must both have {n} rows"
            )
        if self.decide is not None:
            payload = self.decide.hits_payload
            if payload is not None:
                if self.decide.hits:
                    raise ValidationError(
                        "decide spec carries both object hits and a hits payload"
                    )
                holes = payload.total - len(payload.keys)  # type: ignore[attr-defined]
            else:
                holes = sum(1 for c in self.decide.hits if c is None)
            if holes != n:
                raise ValidationError(
                    f"decide spec carries {holes} miss holes for {n} miss keys"
                )


@dataclass
class ShardCycleResult:
    """What one shard worker sends back across the process boundary.

    Attributes:
        version: contract version (must match the coordinator's).
        shard_index: echo of the spec's shard.
        cache_delta: the cache updates the coordinator merges — one entry
            per spec key (see :class:`CacheDelta`); without it,
            process-mode cycles would re-observe every table every cycle.
        decision: the worker's decide-phase counts (only when the spec
            carried a :class:`ShardDecideSpec`).
        observe_wall_s: wall-clock seconds the worker spent.
        spans: worker-side :class:`repro.obs.tracing.Span` records (only
            when the spec carried a ``trace`` context); the coordinator
            adopts them into its tracer.
        columnar: the worker's answer
            (:class:`repro.core.columnar.ColumnarResultPayload`): a trait
            matrix the coordinator zips with its retained observation
            arrays, plus selection references under worker decide.
    """

    shard_index: int
    columnar: object
    cache_delta: CacheDelta = field(default_factory=CacheDelta)
    decision: ShardDecision | None = None
    observe_wall_s: float = 0.0
    spans: list = field(default_factory=list)
    version: int = WORK_SPEC_VERSION


def _observe(spec: ShardWorkSpec):
    """Observe/orient: the trait matrix straight from the miss block.

    Returns ``(trait_names, matrix, observed)`` where ``observed`` is
    ``None`` on the vectorised path and the per-object fallback's
    candidate list (already oriented) when any registered trait lacks a
    columnar implementation — custom traits keep working, they just pay
    object construction worker-side.
    """
    from repro.core.columnar import matrix_from_candidates

    block = spec.block
    cost = spec.observe_cost
    if cost:
        for key in spec.keys:
            burn_cpu(cost, str(key).encode("utf-8"))
    names = tuple(spec.traits.names())
    matrix = spec.traits.compute_columnar_matrix(block)  # type: ignore[arg-type]
    if matrix is not None:
        return names, matrix, None
    statistics = block.statistics_batch()  # type: ignore[attr-defined]
    observed = [
        Candidate(key=key, statistics=stats)
        for key, stats in zip(spec.keys, statistics)
    ]
    spec.traits.annotate_all(observed)
    return names, matrix_from_candidates(observed, names), observed


def _decide(spec: ShardWorkSpec, names: tuple, matrix, observed):
    """Worker-side decide; no candidate objects cross back.

    Filter → orient → filter → rank → select — the same sequence as
    :meth:`~repro.core.pipeline.AutoCompPipeline.orient` followed by the
    sharded pipeline's local decide, so the decision is value-identical
    to a coordinator-side one — over transient worker-local candidates:
    misses rebuilt from the block's scalars with traits pre-assigned from
    the matrix, hits rebuilt from the spec's
    :class:`~repro.core.columnar.ColumnarHitPayload` (or taken verbatim
    from object hits).  The answer is counts plus *references* into the
    coordinator's own candidate lists.
    """
    from repro.core.columnar import ColumnarResultPayload

    decide = spec.decide
    assert decide is not None
    if observed is None:
        statistics = spec.block.statistics_batch(  # type: ignore[attr-defined]
            include_sizes=False
        )
        rows = matrix.tolist()
        observed = [
            Candidate(key=key, statistics=stats, traits=dict(zip(names, row)))
            for key, stats, row in zip(spec.keys, statistics, rows)
        ]
    if decide.hits_payload is not None:
        placed = decide.hits_payload.build()  # type: ignore[attr-defined]
    else:
        placed = list(decide.hits)
    ref_of: dict[int, tuple] = {}
    for j, candidate in enumerate(observed):
        ref_of[id(candidate)] = ("miss", j)
    for position, candidate in enumerate(placed):
        if candidate is not None:
            ref_of[id(candidate)] = ("hit", position)
    fill = iter(observed)
    candidates = [c if c is not None else next(fill) for c in placed]
    survivors = apply_filters(list(decide.stats_filters), candidates, spec.now)
    after_stats = len(survivors)
    spec.traits.annotate_all(survivors, only_missing=True)
    survivors = apply_filters(list(decide.trait_filters), survivors, spec.now)
    after_traits = len(survivors)
    ranked = decide.policy.rank(survivors)
    selected = decide.selector.select(ranked)
    decision = ShardDecision(
        after_stats_filters=after_stats,
        after_trait_filters=after_traits,
        ranked=len(ranked),
    )
    payload = ColumnarResultPayload(
        trait_names=names,
        matrix=matrix,
        selected=tuple(ref_of[id(c)] for c in selected),
        scores=tuple(c.score for c in selected),
    )
    return decision, payload


def run_shard_work(spec: ShardWorkSpec) -> ShardCycleResult:
    """Worker entry point: observe + orient (+ optionally decide) one spec.

    Module-level so process pools can pickle it.  Statistics go through
    the same constructors as the in-process paths and traits through the
    same registry compute, so the returned trait matrix is value-identical
    to thread-mode observation of the same inputs — the foundation of the
    modes' byte-identical cycle reports.
    """
    from repro.core.columnar import ColumnarResultPayload

    if spec.version != WORK_SPEC_VERSION:
        # Backstop only: WorkerPool.negotiate performs the real handshake
        # before any spec ships, so hitting this means a pool skipped it.
        raise WorkerError(
            f"shard work spec version {spec.version} != worker "
            f"{WORK_SPEC_VERSION}; the transport handshake "
            "(WorkerPool.negotiate) must run before specs ship"
        )
    recorder = None
    if spec.trace is not None:
        from repro.obs.tracing import SpanRecorder

        recorder = SpanRecorder(spec.trace)
    start = time.perf_counter()
    try:
        if recorder is not None:
            with recorder.span("observe", shard=spec.shard_index, keys=len(spec.keys)):
                names, matrix, observed = _observe(spec)
        else:
            names, matrix, observed = _observe(spec)
        decision = None
        if spec.decide is None:
            payload = ColumnarResultPayload(trait_names=names, matrix=matrix)
        elif recorder is not None:
            with recorder.span("decide", shard=spec.shard_index):
                decision, payload = _decide(spec, names, matrix, observed)
        else:
            decision, payload = _decide(spec, names, matrix, observed)
        return ShardCycleResult(
            shard_index=spec.shard_index,
            columnar=payload,
            # Every miss rides the delta: the coordinator rebuilds all of
            # them from its retained arrays, so nothing observed here is
            # re-observed next cycle.
            cache_delta=CacheDelta(
                slots=spec.slots, tokens=spec.tokens, stored_at=spec.now
            ),
            decision=decision,
            observe_wall_s=time.perf_counter() - start,
            spans=recorder.spans if recorder is not None else [],
        )
    finally:
        # Drop this process's segment mappings; the coordinator owns the
        # segments and unlinks them when it releases the spec.
        spec.block.close()  # type: ignore[attr-defined]
        if spec.decide is not None and spec.decide.hits_payload is not None:
            spec.decide.hits_payload.close()  # type: ignore[attr-defined]


def _shutdown_executor(executor: Executor) -> None:
    """Finalizer target: must not capture the owning pool (GC safety)."""
    executor.shutdown(wait=False, cancel_futures=True)


class WorkerPool:
    """A persistent thread- or process-backed executor with one lifecycle.

    Construction is cheap — the underlying executor spawns lazily on first
    use and is then *reused* across cycles (spawning a process pool per
    cycle costs more than many cycles' work).  Owners call :meth:`close`
    when done; a ``weakref`` finalizer backstops owners that forget, so
    garbage-collected pools never strand worker processes.

    Args:
        mode: one of :data:`WORKER_MODES`.
        max_workers: executor width.
    """

    def __init__(self, mode: str = "threads", max_workers: int = 1) -> None:
        if mode not in WORKER_MODES:
            raise ValidationError(
                f"unknown worker mode {mode!r}; expected one of {WORKER_MODES}"
            )
        if max_workers <= 0:
            raise ValidationError(f"max_workers must be positive, got {max_workers}")
        if mode == "processes" and not process_workers_available():
            raise ValidationError(
                "process workers need fork on Linux; use the thread-pool "
                "fallback (mode='threads') on this platform"
            )
        self.mode = mode
        self.max_workers = max_workers
        self._executor: Executor | None = None
        self._finalizer: weakref.finalize | None = None
        self._futures: list[Future] = []
        self._contract: TransportContract | None = None
        self._resources: dict[int, object] = {}

    @property
    def started(self) -> bool:
        """Whether the underlying executor has been spawned."""
        return self._executor is not None

    def _ensure(self) -> Executor:
        executor = self._executor
        if executor is None:
            if self.mode == "processes":
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor
                from multiprocessing import resource_tracker

                # Start the coordinator's shared-memory resource tracker
                # before forking, so the workers inherit it.  A worker
                # forked first would start a tracker of its own on its
                # first segment attach, and that tracker would "clean up"
                # (unlink) segments the coordinator still owns when the
                # worker exits.
                resource_tracker.ensure_running()
                executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
            else:
                from concurrent.futures import ThreadPoolExecutor

                executor = ThreadPoolExecutor(max_workers=self.max_workers)
            self._executor = executor
            self._finalizer = weakref.finalize(self, _shutdown_executor, executor)
        return executor

    def negotiate(self) -> TransportContract:
        """Handshake the worker contract; the pool's one version check.

        Fetches :func:`describe_contract` from a live worker (threads
        share the interpreter, so their contract is by construction the
        local one) and verifies both sides run the same spec version.
        Cached until :meth:`close` — one round trip per pool lifetime,
        not per cycle.

        Raises:
            WorkerError: naming both sides' versions on a mismatch — the
                single failure point that replaced per-object
                ``version:`` field checks.
        """
        local = describe_contract()
        remote = self._contract
        if remote is None:
            if self.mode == "processes":
                remote = self.submit(describe_contract).result()
            else:
                remote = local
            self._contract = remote
        if remote.version != local.version:
            raise WorkerError(
                f"worker contract handshake failed: coordinator speaks "
                f"v{local.version}, workers speak v{remote.version}"
            )
        return remote

    def track_resource(self, resource: object) -> None:
        """Register a disposable (``dispose()``-bearing) shared resource.

        The columnar transport parks its live shared-memory blocks here so
        :meth:`close` can unlink anything a crashed worker or an
        interrupted cycle left behind — segments must never outlive the
        pool.
        """
        self._resources[id(resource)] = resource

    def untrack_resource(self, resource: object) -> None:
        """Drop a resource released through the normal per-cycle path."""
        self._resources.pop(id(resource), None)

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        """Submit one task (spawning the executor on first use)."""
        future = self._ensure().submit(fn, *args, **kwargs)
        self._track(future)
        return future

    def _track(self, future: Future) -> None:
        # Kept so close(timeout=...) can cancel-then-drain in-flight work;
        # pruned opportunistically so long-lived pools don't accumulate
        # references to every future they ever ran.
        if len(self._futures) >= 64:
            self._futures = [f for f in self._futures if not f.done()]
        self._futures.append(future)

    def map_ordered(self, fn: Callable, items: Iterable) -> list:
        """Run ``fn`` over ``items``, results in submission order.

        Results are assembled in input order regardless of completion
        order, so callers' outputs stay deterministic whatever the pool
        width.
        """
        futures = [self.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def run_tasks(self, thunks: Sequence[Callable[[], object]]) -> list:
        """Run zero-argument callables, results in submission order.

        Thread mode only: closures cannot cross a process boundary, which
        is exactly the constraint the spec/result contracts exist to lift.
        """
        if self.mode == "processes":
            raise ValidationError(
                "process pools cannot run closures; submit a module-level "
                "function with a picklable spec instead"
            )
        futures = [self.submit(thunk) for thunk in thunks]
        return [future.result() for future in futures]

    def close(self, timeout: float | None = None) -> None:
        """Shut the executor down (idempotent).

        Args:
            timeout: ``None`` (the default) waits for running work to
                finish — the historical behaviour.  With a timeout, close
                becomes a *drain*: queued-but-unstarted futures are
                cancelled, running ones get up to ``timeout`` seconds to
                finish, and any process children still alive after that
                are terminated (then killed) and joined — so a daemon
                shutting down mid-cycle never strands orphans for the
                interpreter-teardown finalizer (which can run after the
                executor machinery is already torn down).
        """
        executor, self._executor = self._executor, None
        futures, self._futures = self._futures, []
        resources, self._resources = self._resources, {}
        self._contract = None
        if executor is None:
            self._dispose_resources(resources)
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if timeout is None:
            executor.shutdown(wait=True)
            self._dispose_resources(resources)
            return
        pending = [f for f in futures if not f.done()]
        for future in pending:
            future.cancel()  # unstarted work never runs
        if pending:
            wait(pending, timeout=timeout)
        # Snapshot process children before shutdown forgets them, so we
        # can join (and if necessary kill) stragglers ourselves.
        children = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + timeout
        for child in children:
            child.join(timeout=max(deadline - time.monotonic(), 0.0))
        for child in children:
            if child.is_alive():
                child.terminate()
                child.join(timeout=1.0)
            if child.is_alive():
                child.kill()
                child.join(timeout=1.0)
        self._dispose_resources(resources)

    @staticmethod
    def _dispose_resources(resources: dict[int, object]) -> None:
        # After workers are down: unlinking first could yank a segment out
        # from under a straggler mid-read.
        for resource in resources.values():
            try:
                resource.dispose()  # type: ignore[attr-defined]
            except Exception:
                pass  # best-effort cleanup must not mask the close itself

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
