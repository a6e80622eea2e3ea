"""Shard workers: the process boundary of the scale-out control plane.

The sharded control plane (:mod:`repro.core.sharding`) partitions one OODA
cycle's observe/orient work across shards.  CPU-bound statistics and trait
math serialize on the GIL, so multi-core cycles ship shard work across a
*process* boundary as explicit, versioned, picklable contracts:

* :class:`ShardWorkSpec` — one shard's work: the keys that missed the
  coordinator's stats cache, their observation inputs as a
  :class:`~repro.core.columnar.ColumnarMissBlock` (flat arrays in shared
  memory), their cache slots and freshness **tokens**, and the trait
  registry;
* :class:`ShardCycleResult` — the answer: a trait matrix (one row per
  miss) plus a :class:`CacheDelta` covering every miss, so the coordinator
  rebuilds the candidates from its *own* arrays and its cache learns the
  worker's observations (later cycles stay O(dirty tables));
* :func:`run_shard_work` — the module-level worker entry point.

Only the miss slice crosses: the coordinator resolves cache hits locally.
Under ``selection="local"`` the decide phase crosses too — the spec
carries a :class:`ShardDecideSpec` (policy, split selector, stats filter
chain, resolved hits) and the worker answers with counts plus
*references* to the selected candidates.  Either way the cycle reports
stay byte-identical to inline mode (property-tested).

:class:`WorkerPool` is the persistent process pool behind the sharded
pipeline and the Policy Lab's what-if sweeps over on-disk traces
(:class:`~repro.replay.whatif.WhatIfRunner`): started once, reused across
cycles, shut down via :meth:`WorkerPool.close` (or a ``weakref``
finalizer).  It runs no threads: each forked child reads tasks from one
duplex pipe that the coordinator writes itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import multiprocessing
import os
import sys
import threading
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field
from multiprocessing import connection, resource_tracker
from multiprocessing.process import BaseProcess
from typing import Callable

from repro.core.candidates import Candidate, CandidateKey
from repro.core.filters import CandidateFilter, apply_filters
from repro.core.ranking import RankingPolicy
from repro.core.selection import Selector
from repro.core.traits import TraitRegistry
from repro.errors import ValidationError, WorkerError
from repro.obs.tracing import SpanRecorder, timed

#: Contract version stamped on every spec/result; mixed-version pools after
#: an upgrade must fail loudly (:meth:`WorkerPool.negotiate`), not corrupt
#: caches.  2: worker-side decide (:class:`ShardDecideSpec`); 3: span
#: propagation (``ShardWorkSpec.trace`` in, ``ShardCycleResult.spans``
#: back); 4: columnar payloads and the negotiate handshake; 5: columnar only;
#: 6: no trait-filter chain or count in the decide contract.
WORK_SPEC_VERSION = 6


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

    Process mode forks, so workers inherit the imported modules (spawn
    re-imports the world and re-runs ``__main__`` per worker).  Linux
    only: macOS crashes forking after threads start, Windows has no fork.
    Forked children touch only their own fresh pipe, never the parent's
    locked state, so fork-after-threads deadlocks cannot arise.
    """
    return sys.platform.startswith("linux") and hasattr(os, "fork")


def burn_cpu(units: int, seed: bytes = b"observe") -> int:
    """Deterministically burn ``units`` rounds of CPU; returns a checksum.

    Emulates the per-candidate statistics-collection cost of a real
    connector (manifests, listings, column stats) that the in-memory fleet
    skips.  It holds the GIL, so observe work is CPU-bound as in production.
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
    hits: tuple = ()
    hits_payload: object | None = None


@dataclass
class ShardDecision:
    """A worker's decide-phase outcome (mirrors the CycleReport fields)."""

    after_stats_filters: int = 0
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

    Returns ``(trait_names, matrix, observed)``; ``observed`` is ``None``
    on the vectorised path, else the oriented candidates of the
    per-object fallback taken when a trait has no columnar form.
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

    Filter → orient → rank → select, the sequence of
    :meth:`~repro.core.pipeline.AutoCompPipeline.orient` plus the sharded
    local decide, over transient candidates (misses rebuilt from the
    block with traits from the matrix, hits from the spec's payload), so
    the decision is value-identical to a coordinator-side one.  Answers
    counts plus *references* into the coordinator's candidate lists.
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
    ranked = decide.policy.rank(survivors)
    selected = decide.selector.select(ranked)
    decision = ShardDecision(after_stats_filters=after_stats, ranked=len(ranked))
    payload = ColumnarResultPayload(
        trait_names=names,
        matrix=matrix,
        selected=tuple(ref_of[id(c)] for c in selected),
        scores=tuple(c.score for c in selected),
    )
    return decision, payload


def run_shard_work(spec: ShardWorkSpec) -> ShardCycleResult:
    """Worker entry point: observe + orient (+ optionally decide) one spec.

    Module-level so it pickles by reference.  It runs the in-process
    paths' constructors and trait compute, so its trait matrix is
    value-identical to inline observation of the same inputs.
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
    recorder = SpanRecorder(spec.trace) if spec.trace is not None else None
    start = time.perf_counter()
    try:
        with timed(recorder, "observe", shard=spec.shard_index, keys=len(spec.keys)):
            names, matrix, observed = _observe(spec)
        decision = None
        if spec.decide is None:
            payload = ColumnarResultPayload(trait_names=names, matrix=matrix)
        else:
            with timed(recorder, "decide", shard=spec.shard_index):
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


def _serve(conn, inherited: list) -> None:
    """A process worker: answer each ``(fn, args, kwargs)`` with ``(ok, value)``
    until ``None`` or end-of-file (it first closes the coordinator's pipe
    ends the fork copied in, so a dead coordinator reads as end-of-file)."""
    for end in inherited:
        end.close()
    with contextlib.suppress(EOFError, OSError):  # the coordinator is gone
        while (task := conn.recv()) is not None:
            fn, args, kwargs = task
            try:
                reply = (True, fn(*args, **kwargs))
            except Exception as exc:
                exc.add_note("worker traceback:\n" + "".join(traceback.format_exception(exc)))
                reply = (False, exc)
            try:
                conn.send(reply)
            except OSError:
                raise
            except Exception as exc:  # an answer that does not pickle
                conn.send((False, WorkerError(f"worker could not send its answer: {exc!r}")))


@dataclass(eq=False)
class _Child:
    """A forked worker, our end of its pipe, and its task's future (None: idle)."""

    process: BaseProcess
    conn: connection.Connection
    future: Future | None = None


class _PipeFuture(Future):
    """A process-worker future: ``result()`` drives the pool (so
    ``concurrent.futures.wait``, which does not, must not be used)."""

    def __init__(self, workers: "_ProcessWorkers") -> None:
        super().__init__()
        self._workers = workers

    def result(self, timeout: float | None = None):
        self._workers.drive(self, timeout)
        return super().result(timeout=0)

    def exception(self, timeout: float | None = None):
        self._workers.drive(self, timeout)
        return super().exception(timeout=0)


class _ProcessWorkers(Executor):
    """The executor behind :class:`WorkerPool`: ``max_workers``
    forked children, each fed over its own duplex pipe, and no threads."""

    def __init__(self, max_workers: int) -> None:
        # Start the coordinator's shared-memory resource tracker before
        # forking, so the workers inherit it.  A worker forked first would
        # start a tracker of its own on its first segment attach, and that
        # tracker would "clean up" (unlink) segments the coordinator still
        # owns when the worker exits.
        resource_tracker.ensure_running()
        self._context = multiprocessing.get_context("fork")
        self._lock = threading.RLock()
        self._queue: deque[tuple[Future, tuple]] = deque()
        self._closed = False
        self._children: list[_Child] = []
        for _ in range(max_workers):
            self._children.append(self._spawn())

    def _spawn(self) -> _Child:
        ours, theirs = self._context.Pipe()
        inherited = [child.conn for child in self._children] + [ours]
        process = self._context.Process(
            target=_serve, args=(theirs, inherited), daemon=True
        )
        process.start()
        theirs.close()
        return _Child(process, ours)

    def _replace(self, index: int) -> WorkerError:
        """Reap the dead child at ``index`` and fork its replacement."""
        dead = self._children[index]
        dead.conn.close()
        dead.process.join(timeout=1.0)
        self._children[index] = self._spawn()
        return WorkerError(
            f"worker process {dead.process.pid} died (exit code {dead.process.exitcode})"
        )

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        future = _PipeFuture(self)
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot schedule new futures after shutdown")
            self._queue.append((future, (fn, args, kwargs)))
            idle = [i for i, child in enumerate(self._children) if child.future is None]
            if idle:
                self._feed(idle[0])
        return future

    def _feed(self, index: int) -> None:
        """Send the next runnable queued task to the idle child ``index``."""
        child = self._children[index]
        while child.future is None and self._queue:
            future, task = self._queue.popleft()
            if not future.set_running_or_notify_cancel():
                continue  # cancelled while queued
            try:
                child.conn.send(task)
            except OSError:
                future.set_exception(self._replace(index))
                child = self._children[index]
            except Exception as exc:  # a task that does not pickle
                future.set_exception(exc)
            else:
                child.future = future

    def drive(self, target: Future, timeout: float | None = None) -> None:
        """Collect answers until ``target`` is done or ``timeout`` passes."""
        deadline = math.inf if timeout is None else time.monotonic() + timeout
        while not target.done():
            busy = [child.conn for child in self._children if child.future is not None]
            left = deadline - time.monotonic()
            if not busy or left <= 0:
                return
            # Bounded: another waiting thread may collect this one's answer.
            ready = connection.wait(busy, min(left, 0.1))
            with self._lock:
                for index, child in enumerate(self._children):
                    # poll(): another waiting thread may have collected it.
                    if child.future is not None and child.conn in ready and child.conn.poll():
                        self._collect(index)

    def _collect(self, index: int) -> None:
        child = self._children[index]
        future, child.future = child.future, None
        try:
            ok, value = child.conn.recv()
        except (EOFError, OSError):
            ok, value = False, self._replace(index)
        if ok:
            future.set_result(value)  # type: ignore[union-attr]
        else:
            future.set_exception(value)  # type: ignore[union-attr]
        self._feed(index)

    def shutdown(self, wait=True, *, cancel_futures=False, timeout: float | None = None) -> None:
        """Stop the children; a task left unfinished fails with ``WorkerError``.

        With ``wait``, running (and, unless ``cancel_futures``, queued)
        tasks get up to ``timeout`` seconds, then the children are joined
        by the same deadline, then terminated and killed.  Without it (the
        finalizer path) they exit after their current task, unjoined.
        """
        deadline = None if timeout is None else time.monotonic() + timeout

        def left() -> float | None:
            return None if deadline is None else max(deadline - time.monotonic(), 0.0)

        with self._lock:
            self._closed = True
            for future, _ in self._queue if cancel_futures else ():
                future.cancel()
        while wait and left() != 0.0:
            running = [c.future for c in self._children if c.future is not None]
            if not running:
                break
            self.drive(running[0], left())
        with self._lock:
            for child in self._children:
                with contextlib.suppress(OSError):
                    child.conn.send(None)
            for child in self._children:
                if wait:
                    child.process.join(left())
                    for stop in (child.process.terminate, child.process.kill):
                        if child.process.is_alive():
                            stop()
                            child.process.join(timeout=1.0)
                if child.future is not None:
                    child.future.set_exception(
                        WorkerError("worker pool closed before the task finished")
                    )
                    child.future = None
                child.conn.close()
            for future, _ in self._queue:
                future.cancel()
            self._queue.clear()


class WorkerPool:
    """A persistent process-backed executor with one lifecycle.

    The executor starts on first use and is reused across cycles (forking
    per cycle costs more than many cycles' work).  Owners call
    :meth:`close`; a ``weakref`` finalizer backstops owners that forget.

    The pool forks all ``max_workers`` children at once, from the calling
    thread, each with one duplex pipe: :meth:`submit` pickles a task into
    an idle child's pipe from the caller's thread (or queues it), and
    ``Future.result()`` drives the pool — it waits on the busy pipes,
    collects each answer and sends the freed child the next queued task.
    No management or feeder thread stands between a submit and its
    worker.  A child that dies fails its task with
    :class:`~repro.errors.WorkerError` and is replaced by a fresh fork.

    Args:
        max_workers: number of worker processes.
    """

    def __init__(self, max_workers: int = 1) -> None:
        if max_workers <= 0:
            raise ValidationError(f"max_workers must be positive, got {max_workers}")
        if not process_workers_available():
            raise ValidationError(
                "process workers need fork on Linux; run the work inline on this platform"
            )
        self.max_workers = max_workers
        self._executor: _ProcessWorkers | None = None
        self._finalizer: weakref.finalize | None = None
        self._contract: TransportContract | None = None
        self._resources: dict[int, object] = {}

    @property
    def started(self) -> bool:
        """Whether the worker processes have been started."""
        return self._executor is not None

    def _ensure(self) -> _ProcessWorkers:
        executor = self._executor
        if executor is None:
            executor = self._executor = _ProcessWorkers(self.max_workers)
            self._finalizer = weakref.finalize(self, _shutdown_executor, executor)
        return executor

    def negotiate(self) -> TransportContract:
        """Handshake the worker contract: the pool's one version check.

        Fetches :func:`describe_contract` from a live worker once per pool
        lifetime, until :meth:`close`.

        Raises:
            WorkerError: naming both sides' versions on a mismatch.
        """
        local = describe_contract()
        remote = self._contract
        if remote is None:
            remote = self._contract = self.submit(describe_contract).result()
        if remote.version != local.version:
            raise WorkerError(
                f"worker contract handshake failed: coordinator speaks "
                f"v{local.version}, workers speak v{remote.version}"
            )
        return remote

    def track_resource(self, resource: object) -> None:
        """Register a ``dispose()``-bearing shared resource (a live
        shared-memory block) for :meth:`close` to release if a crashed
        worker or an interrupted cycle left it behind."""
        self._resources[id(resource)] = resource

    def untrack_resource(self, resource: object) -> None:
        """Drop a resource released through the normal per-cycle path."""
        self._resources.pop(id(resource), None)

    def submit(self, fn: Callable, /, *args, **kwargs) -> Future:
        """Submit one task (starting the workers on first use)."""
        return self._ensure().submit(fn, *args, **kwargs)

    def close(self, timeout: float | None = None) -> None:
        """Shut the workers down (idempotent).  ``timeout=None`` waits for
        running work; a timeout *drains*: queued tasks are cancelled,
        running ones get ``timeout`` seconds, then children still alive
        are terminated (then killed) and joined."""
        executor, self._executor = self._executor, None
        resources, self._resources = self._resources, {}
        self._contract = None
        if executor is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            if timeout is None:
                executor.shutdown(wait=True)
            else:
                executor.shutdown(cancel_futures=True, timeout=timeout)
        # Only now that the workers are down: unlinking first could yank a
        # segment out from under a straggler mid-read.
        for resource in resources.values():
            with contextlib.suppress(Exception):  # best-effort cleanup
                resource.dispose()  # type: ignore[attr-defined]

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
