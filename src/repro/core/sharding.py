"""Scale-out control plane: sharded parallel OODA cycles.

The paper's deployment (§7) onboards thousands of tables per month at a
fixed cycle cadence, so cycle latency must not grow linearly with fleet
size.  This module shards one logical AutoComp instance across N per-shard
:class:`~repro.core.pipeline.AutoCompPipeline` instances:

* candidate keys are **consistent-hashed** across shards
  (:func:`shard_for_key`: a stable content hash, the same shard in every
  cycle and process);
* each shard runs **observe/orient** over its slice — inline on the
  calling thread, or, for shards 1..N-1, on a **process pool** (connectors
  with a :class:`~repro.core.transport.ColumnarTransport`) that sidesteps
  the GIL while the coordinator observes shard 0 — optionally over an
  incremental
  :class:`~repro.core.statscache.IndexedCandidateCache`;
* **decide** runs globally (``selection="global"``: survivors merged in
  generation order and ranked once, exactly the unsharded cycle) or
  locally (``selection="local"``: each shard ranks and selects under a
  :func:`split_selector` budget, inside the worker on process cycles, and
  acts as soon as its answer lands);
* per-shard reports merge into a fleet report; per-shard metrics land in
  scoped telemetry namespaces (``autocomp.shard00.…``).

Determinism (NFR2) holds in every mode: hashing is content-based, merging
follows generation order, and shards act in shard order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.candidates import Candidate, CandidateKey
from repro.core.pipeline import AutoCompPipeline, CycleReport
from repro.core.ranking import RankingPolicy
from repro.core.selection import AllSelector, BudgetSelector, Selector, TopKSelector
from repro.core.workers import WorkerPool, run_shard_work
from repro.errors import ValidationError, WorkerError
from repro.obs.tracing import Tracer, timed
from repro.simulation.simulator import Simulator
from repro.simulation.telemetry import RATIO_BOUNDS, Telemetry

#: Valid decide-phase placements.
SELECTION_MODES = ("global", "local")

#: Shard execution modes: ``inline`` observes every shard on the calling
#: thread; ``processes`` ships shards 1..N-1 to forked worker processes and
#: observes shard 0 on the calling thread, the multi-core mode for CPU-bound
#: observe work.
WORKER_MODES = ("inline", "processes")


def shard_for_key(key: CandidateKey, n_shards: int) -> int:
    """The shard owning ``key``: BLAKE2b of its string form mod ``n_shards``,
    so the same key maps to the same shard in every cycle, process and
    machine (no per-process hash randomisation)."""
    if n_shards <= 0:
        raise ValidationError(f"n_shards must be positive, got {n_shards}")
    digest = hashlib.blake2b(str(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


def _split_count(total: int, n_shards: int) -> list[int]:
    base, extra = divmod(max(total, 0), n_shards)
    return [base + (1 if i < extra else 0) for i in range(n_shards)]


def split_selector(selector: Selector, n_shards: int) -> list[Selector]:
    """Split one selection budget into ``n_shards`` per-shard selectors
    (local selection): top-k spreads k evenly, earlier shards taking the
    remainder; GBHr budgets divide evenly.

    Raises:
        ValidationError: for selector types without a known split rule.
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


class _CycleWalls:
    """A cycle's phase walls, fed to the wall histograms once per cycle:
    per-shard decide/act walls are summed, and the observe wall
    (:attr:`observe_s`) excludes the decide/act work run inside it."""

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry
        self.sums: dict[str, float] = {}
        self.observe_s = 0.0

    def observe(self, name: str, wall_s: float) -> None:
        if name == "autocomp.hist.observe_wall_s":
            self.observe_s = wall_s - sum(self.sums.values())
            self.telemetry.observe(name, self.observe_s)
        else:
            self.sums[name] = self.sums.get(name, 0.0) + wall_s

    def flush(self) -> None:
        for name, wall_s in self.sums.items():
            self.telemetry.observe(name, wall_s)


@dataclass
class ShardedCycleReport:
    """One fleet-level cycle: the merged view plus per-shard detail."""

    #: Fleet-level merged report (counts summed, results of the act phase).
    report: CycleReport
    #: Per-shard reports (observation counts, each shard's selection).
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

    Shards view the same world and share filter/trait/decide configuration:
    the plane partitions the *work*, not the data.  Candidates are listed
    once, through shard 0's connector, and the fleet-level :attr:`policy`,
    :attr:`selector` and :attr:`generation` are shard 0's, read live every
    cycle (so :func:`~repro.core.promoter.apply_variant` reconfigures the
    fleet by reconfiguring the shards).

    Args:
        shards: the per-shard pipelines (their connectors typically carry
            stats caches for incremental observation).
        selection: ``"global"`` (merge, then rank/select once with shard
            0's policy and selector — exactly the unsharded pipeline) or
            ``"local"`` (per-shard decide under shard 0's selector split
            by :func:`split_selector`; process workers decide in-process
            and answer with counts plus selection references).
        merge_order: ``"generation"`` (default) rebuilds the unsharded
            candidate order before the global rank — correct for any
            policy; ``"any"`` concatenates per-shard results, cheaper and
            identical for order-insensitive policies (every built-in one).
        workers: ``"inline"`` (default; works with any connector) or
            ``"processes"`` (multi-core observation; every shard connector
            must provide a :class:`~repro.core.transport.ColumnarTransport`
            via :meth:`~repro.core.connectors.Connector.worker_transport`).
            Both produce byte-identical cycle reports.
        max_workers: the cycle's parallelism in process mode, counting
            the coordinator (which observes shard 0 itself), so the pool
            forks ``max_workers - 1`` children; defaults to
            ``min(len(shards), cpu_count)``.  1, or a single shard, starts
            no pool and runs every shard inline.
        telemetry: fleet-level metric sink (per-shard metrics go under
            its ``autocomp.shard<i>`` scopes).
        tracer: optional :class:`repro.obs.tracing.Tracer` (also settable
            later; it propagates to every shard).  Each cycle produces one
            ``cycle → observe → shard → …`` span tree, with the worker's
            observe/decide spans stitched in under their shard span.

    In process mode the worker pool starts on the first cycle, is reused
    by every later one, and is shut down by :meth:`close` (or ``with``).
    """

    def __init__(
        self,
        shards: Sequence[AutoCompPipeline],
        selection: str = "global",
        merge_order: str = "generation",
        workers: str = "inline",
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
        #: Per-shard worker transports (process mode only; inline cycles
        #: never ship).
        self._transports: list = []
        #: The persistent process pool (process mode only).
        self._pool: WorkerPool | None = None
        if workers == "processes":
            self._transports = [shard.worker_transport() for shard in self.shards]
            unsupported = [
                type(shard.connector).__name__
                for shard, transport in zip(self.shards, self._transports)
                if transport is None
            ]
            if unsupported:
                raise ValidationError(
                    "workers='processes' needs every shard connector to provide a "
                    "worker transport (Connector.worker_transport); these do not: "
                    f"{sorted(set(unsupported))}. Use workers='inline' instead."
                )
            if max_workers is None:
                max_workers = min(len(self.shards), os.cpu_count() or 1)
            if max_workers <= 0:
                raise ValidationError(f"max_workers must be positive, got {max_workers}")
            # The coordinator observes shard 0 itself, so its children are
            # max_workers - 1; one shard or max_workers=1 starts no pool.
            if max_workers > 1 and len(self.shards) > 1:
                self._pool = WorkerPool(max_workers - 1)
                for transport in self._transports:
                    transport.bind_pool(self._pool)
        self.workers = workers
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._shard_telemetry = [
            self.telemetry.scoped(f"autocomp.shard{i:02d}") for i in range(len(self.shards))
        ]
        #: ``(selector, its split)``: local-mode split selectors, memoised
        #: on the selector object's identity (see :meth:`_split_selectors`).
        self._split_memo: tuple[Selector, list[Selector]] | None = None
        if selection == "local":
            self._split_selectors()  # an unsplittable selector fails here
        # Shard assignments memoised by key object id (connectors intern
        # their keys): an int-keyed dict hit instead of a content hash.
        # The value pins the key, so its id cannot be recycled; the cap
        # bounds connectors that rebuild key objects every cycle.
        self._shard_of: dict[int, tuple[CandidateKey, int]] = {}
        self._shard_memo_limit = 262_144
        self._cycle_index = 0
        self._tracer: Tracer | None = None
        self.tracer = tracer

    @property
    def tracer(self) -> Tracer | None:
        """The fleet tracer; assigning one hands it to every shard too."""
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
        """Local mode's per-shard selectors: :attr:`selector`, split
        (memoised on, and pinning, the selector object)."""
        selector = self.selector
        memo = self._split_memo
        if memo is None or memo[0] is not selector:
            memo = self._split_memo = (
                selector,
                split_selector(selector, len(self.shards)),
            )
        return memo[1]

    def close(self, timeout: float | None = None) -> None:
        """Shut the shard worker pool down (idempotent; a later cycle
        restarts it).  With a ``timeout`` the pool drains instead of
        blocking (:meth:`~repro.core.workers.WorkerPool.close`) — the
        daemon's graceful-shutdown path.  Inline pipelines hold no pool."""
        if self._pool is not None:
            self._pool.close(timeout=timeout)

    def __enter__(self) -> "ShardedPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: evict ``key`` from the cache of its owning shard.

        Routed by the consistent hash that places the key's observation
        work, so service notification inboxes work unchanged against a
        sharded plane with per-shard connectors (the fleet plane).
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
        shard_keys: list[list[CandidateKey]] = [[] for _ in self.shards]
        shard_for = self._shard_for
        for key in keys:
            shard_keys[shard_for(key)].append(key)
        return shard_keys

    def run_cycle(
        self, now: float = 0.0, simulator: Simulator | None = None
    ) -> ShardedCycleReport:
        """Run one fleet-level OODA cycle across all shards.

        Under ``selection="local"`` each shard decides and acts, in shard
        order, as soon as its candidates are in: a process cycle acts on
        shard 0, which the coordinator observed itself, while the workers
        still compute later shards.  Every shard is observed (or exported
        to its worker) before the first act, so no shard observes the world
        after another shard's commit (shards of one table share its
        snapshots).  ``results`` and ``selected`` keep shard order, so the
        modes' reports stay byte-identical.  Global selection
        observes every shard, then decides and acts once.

        A worker failure on shard *j* raises
        :class:`~repro.errors.WorkerError` once in-flight shard work is
        drained.  Under local selection, shards before *j* have acted and
        their compactions stand — each complete, on keys no other shard
        owns, its cache entries invalidated as it committed — and the
        error names them.

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

            walls = _CycleWalls(telemetry)
            per_shard: list[list[Candidate]] = []
            if self.selection == "local":
                settle = functools.partial(
                    self._settle_shard, fleet_report, shard_reports, simulator, cycle.span, walls
                )
            else:
                settle = lambda index, candidates, decision: per_shard.append(candidates)
            try:
                # Observe + orient each shard's slice (on the process pool
                # when configured), each shard settling as soon as it is in.
                with timed(
                    tracer,
                    "observe",
                    "autocomp.hist.observe_wall_s",
                    walls,
                    mode=self.workers,
                ):
                    observe_wall = self._observe_all(
                        shard_keys, shard_reports, now, settle
                    )
                telemetry.record(
                    f"autocomp.fleet.observe_wall.{self.workers}", now, walls.observe_s
                )
                if self.selection == "global":
                    with timed(tracer, "decide", "autocomp.hist.decide_wall_s", walls):
                        selected = self._decide_global(
                            keys, per_shard, fleet_report, shard_reports
                        )
                    with timed(tracer, "act", "autocomp.hist.act_wall_s", walls):
                        self._act_global(selected, fleet_report, simulator)
                else:
                    for name in ("after_stats_filters", "ranked"):
                        setattr(
                            fleet_report, name, sum(getattr(r, name) for r in shard_reports)
                        )
                    fleet_report.selected = [key for r in shard_reports for key in r.selected]
            finally:
                walls.flush()

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

    def _act_global(
        self,
        selected: list[Candidate],
        fleet_report: CycleReport,
        simulator: Simulator | None,
    ) -> None:
        """Global act phase: one deterministic pass in fleet rank order."""

        def invalidate_owner(result) -> None:
            # Shard 0's pipeline evicts from its own connector's cache;
            # mirror that to the shard that owns the compacted key.
            if result.success:
                owner = self._shard_for(result.candidate)
                if owner != 0:
                    self.shards[owner].connector.invalidate(result.candidate)

        # Shards partition the observation work, not the executor.
        self.shards[0].act(
            selected, fleet_report, simulator=simulator, on_result=invalidate_owner
        )

    def _settle_shard(
        self, fleet_report, shard_reports, simulator, parent, walls, index, candidates, decision
    ) -> None:
        """Local selection: decide and act shard ``index``.

        A worker's ``decision`` is adopted as is; otherwise the shard ranks
        and selects here under its split selector — the worker's sequence,
        so both placements are value-identical.  The ``decide``/``act``
        spans parent to the cycle span ``parent``.
        """
        tracer = self._tracer
        shard = self.shards[index]
        report = shard_reports[index]
        with timed(
            tracer, "decide", "autocomp.hist.decide_wall_s", walls,
            parent=parent, shard=index,
        ):
            if decision is not None:
                report.after_stats_filters = decision.after_stats_filters
                report.ranked = decision.ranked
                chosen = decision.selected
            else:
                ranked = shard.policy.rank(candidates)
                report.ranked = len(ranked)
                chosen = self._split_selectors()[index].select(ranked)
            report.selected = [c.key for c in chosen]
        with timed(
            tracer, "act", "autocomp.hist.act_wall_s", walls,
            parent=parent, shard=index,
        ):
            shard.act(
                chosen, report, simulator=simulator, on_result=fleet_report.results.append
            )

    # --- phases ----------------------------------------------------------------

    def _observe_all(
        self,
        shard_keys: list[list[CandidateKey]],
        shard_reports: list[CycleReport],
        now: float,
        settle,
    ) -> list[float]:
        """Observe/orient every shard, handing each one's candidates (or
        its worker's decision) to ``settle(index, candidates, decision)``
        in shard order; returns each shard's observe wall.

        With a process pool, shards 1..N-1 ship first: per shard, the
        coordinator resolves cache hits, packs the misses into a
        :class:`~repro.core.workers.ShardWorkSpec` through the shard's
        :class:`~repro.core.transport.ColumnarTransport` (shared memory;
        under local selection plus the shard's policy, split selector,
        filters and resolved hits) and sends it to a worker at once.  The
        coordinator observes the rest (shard 0, or every shard without a
        pool) itself while the workers compute, so every observation
        precedes the first act.  Then, in shard order, it merges each
        shipped answer (rebuilding the misses from its own arrays,
        replaying the cache delta), runs the filter passes, and hands each
        shard to ``settle``: shard 0 acts while the workers still run.
        Shipped shards with no misses send nothing and decide on the
        coordinator.  The same code paths as inline mode produce every
        value, so reports match.

        A failed export, worker task or merge cancels queued shard tasks,
        drains running ones and raises one
        :class:`~repro.errors.WorkerError` (cause chained, naming the
        shards that already acted); a failed inline observe, decide or act
        drains the same way and keeps its own exception.  Shared-memory
        segments are released either way.
        """
        observe_wall = [0.0] * len(self.shards)
        selectors = self._split_selectors() if self.selection == "local" else None
        placed_specs: dict[int, tuple] = {}  # shipped shard -> (placed, spec)
        futures = {}
        inline: dict[int, list[Candidate]] = {}
        settled: list[int] = []
        own_error = False  # a failure now keeps its type (no WorkerError)
        pool = self._pool
        if pool is not None:
            pool.negotiate()  # once per pool: both sides speak one spec version
        transports = self._transports
        tracer = self._tracer
        # One coordinator-side "shard" span per shipped shard covers export →
        # worker round trip → merge; its context ships in the spec, so the
        # worker's spans stitch under it.  Pack and unpack walls get child spans.
        shard_spans: list = [None] * len(self.shards)

        def phase(name: str, index: int) -> timed:
            return timed(
                tracer,
                name,
                f"autocomp.hist.{name}_wall_s",
                self.telemetry,
                parent=shard_spans[index],
                detached=True,
            )

        shard_index = returned = 0
        try:
            for shard_index in range(1, len(self.shards)) if pool is not None else ():
                shard, keys = self.shards[shard_index], shard_keys[shard_index]
                if tracer is not None:
                    shard_spans[shard_index] = tracer.begin(
                        "shard", detached=True, shard=shard_index, mode="processes", keys=len(keys)
                    )
                transport = transports[shard_index]
                with phase("pack", shard_index) as pack:
                    placed, spec = transport.export(keys, shard_index, shard.traits)
                    if spec is not None and selectors is not None:
                        spec = transport.attach_decide(
                            spec, placed, shard.policy, selectors[shard_index], shard.stats_filters
                        )
                if spec is not None and shard_spans[shard_index] is not None:
                    spec = dataclasses.replace(spec, trace=shard_spans[shard_index].context)
                observe_wall[shard_index] = pack.wall_s
                placed_specs[shard_index] = (placed, spec)
                if spec is not None:
                    futures[shard_index] = pool.submit(run_shard_work, spec)
            own_error = True
            for shard_index, shard in enumerate(self.shards):
                if shard_index not in placed_specs:
                    keys = shard_keys[shard_index]
                    with timed(
                        tracer, "shard", shard=shard_index, mode="inline", keys=len(keys)
                    ) as work:
                        inline[shard_index] = shard.observe_orient(
                            keys, now, shard_reports[shard_index]
                        )
                    observe_wall[shard_index] = work.wall_s
            for shard_index, shard in enumerate(self.shards):
                decision = None
                if shard_index in inline:
                    candidates = inline.pop(shard_index)
                else:
                    own_error = False
                    placed, spec = placed_specs[shard_index]
                    if spec is None:
                        candidates = [c for c in placed if c is not None]
                    else:
                        result = futures.pop(shard_index).result()
                        if tracer is not None:
                            tracer.adopt(result.spans)
                        observe_wall[shard_index] += result.observe_wall_s
                        transport = transports[shard_index]
                        merge = transport.merge if spec.decide is None else transport.merge_decision
                        with phase("unpack", shard_index) as unpack:
                            merged = merge(spec, placed, result)
                        observe_wall[shard_index] += unpack.wall_s
                        if spec.decide is not None:
                            returned += len(merged.selected)
                            # The decision replaces the survivors.
                            decision, candidates = merged, []
                        else:
                            returned += len(spec.keys)
                            candidates = merged
                    if decision is None:
                        candidates = shard.orient(
                            candidates, now, shard_reports[shard_index], only_missing=True
                        )
                    self._end_shard_span(shard_spans, shard_index)
                    own_error = True
                settle(shard_index, candidates, decision)
                settled.append(shard_index)
        except Exception as exc:
            # Nothing may be left in flight behind a half-run cycle:
            # cancel what has not started, drain what has.
            outstanding = [f for f in futures.values() if not f.done()]
            for future in outstanding:
                if not future.cancel():
                    with contextlib.suppress(Exception):
                        future.result()
            for i in range(len(shard_spans)):
                self._end_shard_span(shard_spans, i, error=str(exc))
            if own_error:
                raise  # an inline observe, decide or act failure keeps its type
            acted = (
                f"; shard(s) {settled} already acted and their compactions stand"
                if settled and selectors is not None
                else ""
            )
            raise WorkerError(
                f"shard {shard_index} failed mid-cycle ({exc}); cancelled or "
                f"drained {len(outstanding)} outstanding shard task(s){acted}"
            ) from exc
        finally:
            # Idempotent; the error path has drained every reader first.
            for index, (_, spec) in placed_specs.items():
                transports[index].release(spec)
        if pool is not None:
            # Local selection returns O(selected) references, not O(misses).
            self.telemetry.record("autocomp.fleet.returned_candidates", now, returned)
        return observe_wall

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
