"""AutoComp as a standalone service, plus the OpenHouse reference wiring.

:func:`openhouse_pipeline` assembles the exact configuration the paper
deploys (§6–§7): MOOP ranking with weights 0.7 (file-count reduction) and
0.3 (compute cost), top-k or budget selection, hybrid or table-scope
candidate generation, recent-table filtering, and partition-serial
scheduling on a dedicated compaction cluster.  Examples and benches build
on it instead of re-wiring components by hand.

:class:`AutoCompService` packages a pipeline with a periodic trigger and a
notification inbox for decoupled optimize-after-write hooks (§5's "pull"
integration shown in Figure 5).
"""

from __future__ import annotations

import threading

from repro.catalog.catalog import Catalog
from repro.core.candidates import CandidateKey
from repro.core.connectors import LstConnector
from repro.core.filters import (
    MinSmallFileCountFilter,
    MinTableAgeFilter,
    QuiescenceFilter,
)
from repro.core.pipeline import AutoCompPipeline, CycleReport
from repro.core.ranking import Objective, WeightedSumPolicy
from repro.core.scheduling import (
    LstExecutionBackend,
    PartitionSerialScheduler,
    Scheduler,
    SequentialScheduler,
)
from repro.core.selection import BudgetSelector, Selector, TopKSelector
from repro.core.traits import (
    ComputeCostTrait,
    FileCountReductionTrait,
    FileEntropyTrait,
    TraitRegistry,
)
from repro.core.triggers import PeriodicTrigger
from repro.engine.cluster import Cluster
from repro.engine.cost_model import CostModel
from repro.errors import ValidationError
from repro.simulation.simulator import Simulator
from repro.units import HOUR

#: The paper's §6 MOOP weights: 0.7 benefit (ΔF_c), 0.3 cost (GBHr).
OPENHOUSE_BENEFIT_WEIGHT = 0.7
OPENHOUSE_COST_WEIGHT = 0.3


def openhouse_pipeline(
    catalog: Catalog,
    compaction_cluster: Cluster,
    cost_model: CostModel | None = None,
    generation: str = "table",
    k: int | None = 10,
    budget_gbhr: float | None = None,
    benefit_weight: float = OPENHOUSE_BENEFIT_WEIGHT,
    min_table_age_s: float = HOUR,
    min_small_files: int = 2,
    quiesce_s: float = 0.0,
    scheduler: Scheduler | None = None,
) -> AutoCompPipeline:
    """The paper's OpenHouse AutoComp configuration, ready to run.

    Args:
        catalog: control plane holding the tables.
        compaction_cluster: dedicated cluster for rewrite jobs.
        cost_model: engine cost model (defaults to :class:`CostModel`).
        generation: ``table`` (the production deployment) or ``hybrid``
            (the §6 partition-aware variant).
        k: fixed top-k selection; ignored when ``budget_gbhr`` is given.
        budget_gbhr: dynamic-k budget selection (the §7 week-22 mode).
        benefit_weight: MOOP weight on file-count reduction (cost weight is
            its complement).
        min_table_age_s: recent-table filter window.
        min_small_files: minimum small files for a candidate to qualify.
        quiesce_s: skip candidates written within this window (the §3.3
            write-activity filter; for hybrid generation the window applies
            per *partition*, letting AutoComp dodge hot partitions and the
            conflicts they cause).  0 disables the filter.
        scheduler: override the default partition-serial scheduler.

    Returns:
        A fully wired :class:`AutoCompPipeline`.
    """
    if not 0 < benefit_weight < 1:
        raise ValidationError("benefit_weight must be in (0, 1)")
    if k is None and budget_gbhr is None:
        raise ValidationError("provide k (fixed) or budget_gbhr (dynamic)")
    cost_model = cost_model if cost_model is not None else CostModel()
    connector = LstConnector(catalog)
    backend = LstExecutionBackend(connector, compaction_cluster, cost_model)
    traits = TraitRegistry(
        [
            FileCountReductionTrait(),
            FileEntropyTrait(),
            ComputeCostTrait(
                executor_memory_gb=compaction_cluster.total_memory_gb,
                rewrite_bytes_per_hour=cost_model.rewrite_bytes_per_hour(
                    compaction_cluster.executors
                ),
            ),
        ]
    )
    policy = WeightedSumPolicy(
        [
            Objective("file_count_reduction", benefit_weight, maximize=True),
            Objective("compute_cost_gbhr", 1.0 - benefit_weight, maximize=False),
        ]
    )
    selector: Selector
    if budget_gbhr is not None:
        selector = BudgetSelector(budget_gbhr)
    else:
        selector = TopKSelector(k if k is not None else 10)
    if scheduler is None:
        scheduler = (
            PartitionSerialScheduler() if generation == "hybrid" else SequentialScheduler()
        )
    stats_filters: list = [
        MinTableAgeFilter(min_table_age_s),
        MinSmallFileCountFilter(min_small_files),
    ]
    if quiesce_s > 0:
        stats_filters.append(QuiescenceFilter(quiesce_s))
    return AutoCompPipeline(
        connector=connector,
        backend=backend,
        traits=traits,
        policy=policy,
        selector=selector,
        scheduler=scheduler,
        generation=generation,
        stats_filters=stats_filters,
        telemetry=catalog.telemetry,
    )


def openhouse_sharded_pipeline(
    catalog: Catalog,
    compaction_cluster: Cluster,
    n_shards: int = 4,
    stats_cache: "object | None" = None,
    selection: str = "global",
    workers: str = "threads",
    max_workers: int | None = None,
    telemetry=None,
    tracer=None,
    **pipeline_kwargs,
):
    """The OpenHouse configuration behind the scale-out control plane.

    Builds ``n_shards`` :func:`openhouse_pipeline`-shaped shards that
    *share* one :class:`~repro.core.connectors.LstConnector` (and its
    optional stats cache): the sharded control plane partitions the work,
    not the catalog, and a shared connector keeps dense-cache slot
    interning consistent across shards.  The LST connector packs its
    shard work into columnar shared-memory blocks
    (:class:`~repro.core.transport.ColumnarTransport`), so
    ``workers="processes"`` runs the realistic catalog path on true
    multi-core workers.

    Args:
        catalog: control plane holding the tables.
        compaction_cluster: dedicated cluster for rewrite jobs.
        n_shards: shard count.
        stats_cache: optional shared incremental-observation
            :class:`~repro.core.statscache.IndexedCandidateCache`.
        selection / workers / max_workers: forwarded to
            :class:`~repro.core.sharding.ShardedPipeline`.
        telemetry: fleet-level metric sink (defaults to the catalog's).
        tracer: optional :class:`~repro.obs.tracing.Tracer` installed on
            the sharded pipeline (and thus every shard), so cycles emit
            stitched ``cycle → shard → observe/decide/act`` spans.
        **pipeline_kwargs: forwarded to :func:`openhouse_pipeline`
            (``k``, ``budget_gbhr``, ``generation``, filters, …).

    Returns:
        A ready :class:`~repro.core.sharding.ShardedPipeline`.
    """
    from repro.core.sharding import ShardedPipeline

    if n_shards <= 0:
        raise ValidationError("n_shards must be positive")
    template = openhouse_pipeline(catalog, compaction_cluster, **pipeline_kwargs)
    connector = template.connector
    connector.stats_cache = stats_cache
    shards = [template]
    for _ in range(n_shards - 1):
        shards.append(
            AutoCompPipeline(
                connector=connector,
                backend=template.backend,
                traits=template.traits,
                policy=template.policy,
                selector=template.selector,
                # Shared on purpose: schedulers hold configuration only
                # (no cross-call state), and the sharded control plane
                # runs shard act phases serially on the coordinator — a
                # fresh default-constructed copy would silently drop any
                # caller-configured scheduling limits.
                scheduler=template.scheduler,
                generation=template.generation,
                stats_filters=template.stats_filters,
                trait_filters=template.trait_filters,
                telemetry=template.telemetry,
            )
        )
    return ShardedPipeline(
        shards,
        selection=selection,
        workers=workers,
        max_workers=max_workers,
        telemetry=telemetry if telemetry is not None else catalog.telemetry,
        tracer=tracer,
    )


class AutoCompService:
    """Standalone AutoComp service: periodic cycles plus a hook inbox.

    Args:
        pipeline: the configured pipeline — a plain
            :class:`~repro.core.pipeline.AutoCompPipeline` or a
            :class:`~repro.core.sharding.ShardedPipeline` (notifications
            are routed to the owning shard's connector either way).
        interval_s: periodic cycle spacing.
        policy_store: optional
            :class:`~repro.core.promoter.PolicyStore`; when set, every
            cycle first syncs the pipeline to the store's *active* variant
            (see :meth:`use_policy_store`), so the live policy is resolved
            through the policy plane instead of staying frozen at
            construction.

    Attributes:
        reports: accumulated cycle reports.
        notifications: candidate keys pushed by decoupled
            optimize-after-write hooks since the last cycle; exposed so
            deployments can prioritise or short-circuit observation for
            recently written tables.
        cycle_hooks: callables invoked with each finished cycle's report
            (the merged fleet report for sharded pipelines is passed
            as-is, wrapped in its
            :class:`~repro.core.sharding.ShardedCycleReport`).  Unlike the
            pipeline's ``feedback_hooks`` — which fire per shard on a
            sharded plane — these fire exactly once per service cycle,
            which is what the
            :class:`~repro.core.promoter.PolicyPromoter`'s guard window
            needs.
    """

    def __init__(
        self,
        pipeline: AutoCompPipeline,
        interval_s: float = 24 * HOUR,
        policy_store=None,
    ) -> None:
        self.pipeline = pipeline
        self.interval_s = interval_s
        self.reports: list[CycleReport] = []
        self.notifications: list[CandidateKey] = []
        #: Scheduled firings skipped because the previous cycle was still
        #: running (see :meth:`attach`'s overlap guard).
        self.overlap_skips = 0
        self.cycle_hooks: list = []
        self.policy_store = None
        self._applied_policy_version: int | None = None
        self._inbox_lock = threading.Lock()
        self._in_cycle = False
        self._trigger: PeriodicTrigger | None = None
        self._history = None
        self._history_taps = None
        if policy_store is not None:
            self.use_policy_store(policy_store)

    def use_policy_store(self, store) -> "AutoCompService":
        """Resolve the live policy through ``store`` from the next cycle on.

        The read side of the policy-plane seam: at the top of every
        :meth:`run_cycle`, the store's version is compared against the
        last applied one and, when it moved (a promotion or rollback —
        possibly made by another process sharing the store directory),
        the active variant is applied to the pipeline via
        :func:`~repro.core.promoter.apply_variant`.  Returns self.
        """
        self.policy_store = store
        self._applied_policy_version = None
        return self

    def _sync_policy(self) -> None:
        store = self.policy_store
        if store is None:
            return
        version = store.version
        if version is None or version == self._applied_policy_version:
            return
        variant = store.active
        if variant is not None:
            # Imported lazily only to keep import time lean; promoter is a
            # core module (replay types inside it are themselves lazy).
            from repro.core.promoter import apply_variant

            apply_variant(self.pipeline, variant)
        self._applied_policy_version = version

    def notify(self, key: CandidateKey) -> None:
        """Inbox endpoint for decoupled optimize-after-write hooks.

        Thread-safe: connector hooks and daemon worker threads may push
        concurrently with a cycle draining the inbox.
        """
        with self._inbox_lock:
            self.notifications.append(key)

    def run_cycle(self, now: float = 0.0, simulator: Simulator | None = None) -> CycleReport:
        """Run one cycle immediately, draining the notification inbox.

        Each drained write event invalidates the stats cache of the
        connector that owns the key (when one is configured), so the next
        observe phase re-collects statistics exactly for the tables that
        wrote — the incremental observation loop of the scale-out control
        plane.  The inbox is deduplicated first, preserving first-seen
        order: a hot table notifying N times between cycles costs one
        cache invalidation, not N.

        The drain swaps the inbox list out atomically under the same lock
        :meth:`notify` takes, so notifications arriving mid-drain land in
        the fresh inbox (served next cycle) instead of being cleared
        unprocessed or invalidated twice.
        """
        self._sync_policy()
        with self._inbox_lock:
            pending, self.notifications = self.notifications, []
        for key in dict.fromkeys(pending):
            self.pipeline.invalidate(key)
        self._in_cycle = True
        try:
            report = self.pipeline.run_cycle(now=now, simulator=simulator)
        finally:
            self._in_cycle = False
        self.reports.append(report)
        self._publish_cycle(report, now if simulator is None else simulator.now)
        for hook in self.cycle_hooks:
            hook(report)
        return report

    def cycle_in_flight(self) -> bool:
        """Whether a cycle is mid-run or its async act work is unfinished.

        Covers both a re-entrant call while :meth:`run_cycle` is on the
        stack and simulated-mode cycles whose scheduled compaction jobs
        have not all completed yet.
        """
        if self._in_cycle:
            return True
        if not self.reports:
            return False
        last = getattr(self.reports[-1], "report", self.reports[-1])
        return len(last.results) < len(last.selected)

    def attach(self, simulator: Simulator, until: float | None = None) -> "AutoCompService":
        """Arm periodic execution on a simulator; returns self.

        The next firing is anchored to the *completion* of the previous
        cycle — each firing re-arms itself ``interval_s`` after it ran —
        so a long cycle delays the schedule instead of drifting onto a
        fixed grid that stacks overdue firings.  If a firing lands while
        the previous cycle is still in flight (async act work pending),
        it is skipped and counted (``overlap_skips`` and the
        ``autocomp.service.overlap_skips`` telemetry counter) rather than
        overlapping it.
        """

        def fire() -> None:
            if self.cycle_in_flight():
                self.overlap_skips += 1
                telemetry = getattr(self.pipeline, "telemetry", None)
                if telemetry is not None:
                    telemetry.increment("autocomp.service.overlap_skips")
            else:
                self.run_cycle(simulator=simulator)
            # Re-arm from completion (simulator.now has advanced past any
            # time the cycle consumed), not from the original grid.
            next_at = simulator.now + self.interval_s
            if until is None or next_at < until:
                simulator.at(next_at, fire, name="autocomp-service")

        first = simulator.now + self.interval_s
        if until is None or first < until:
            simulator.at(first, fire, name="autocomp-service")
        return self

    # --- self-evaluation (Policy Lab over the service's own history) ------------

    def _catalog(self) -> Catalog:
        connector = getattr(self.pipeline, "connector", None)
        if connector is None:
            shards = getattr(self.pipeline, "shards", None)
            if shards:
                connector = shards[0].connector
        catalog = getattr(connector, "catalog", None)
        if catalog is None:
            raise ValidationError(
                "self-evaluation needs an LST-catalog pipeline "
                "(the connector carries no catalog)"
            )
        return catalog

    def _compaction_cluster(self):
        backend = getattr(self.pipeline, "backend", None)
        if backend is None:
            shards = getattr(self.pipeline, "shards", None)
            if shards:
                backend = shards[0].backend
        return getattr(backend, "cluster", None)

    def enable_history(
        self,
        segment_cycles: int = 8,
        max_segments: int = 8,
        seed: int = 0,
    ):
        """Start ring-buffering this deployment's own history for replay.

        Wires a :class:`~repro.replay.catalog_trace.CatalogHistoryRing`
        onto the pipeline's catalog: every subsequent table commit and
        service cycle is captured into bounded, checkpoint-delimited trace
        segments (oldest evicted beyond ``max_segments``), from which
        :meth:`evaluate_recent` replays candidate policies offline.
        Returns the ring (idempotent — a second call returns the same one,
        resuming it after :meth:`disable_history`).
        """
        if self._history is not None:
            self._history.reopen()
            return self._history
        from repro.replay.catalog_trace import CatalogHistoryRing
        from repro.simulation.taps import TapBus

        catalog = self._catalog()
        taps = catalog.taps if catalog.taps is not None else catalog.attach_taps(TapBus())
        self._history_taps = taps
        if getattr(self.pipeline, "taps", None) is None and not hasattr(
            self.pipeline, "shards"
        ):
            # Unsharded pipelines publish their own cycle events; sharded
            # planes leave shard taps unset and the service publishes the
            # merged fleet report instead (see _publish_cycle).
            self.pipeline.taps = taps
        self._history = CatalogHistoryRing(
            catalog,
            taps,
            seed=seed,
            cluster=self._compaction_cluster(),
            segment_cycles=segment_cycles,
            max_segments=max_segments,
        )
        return self._history

    def disable_history(self) -> bool:
        """Stop recording into the history ring; it stays readable.

        The ring unsubscribes from the catalog's tap bus, so the bus no
        longer references it.  :meth:`enable_history` resumes recording
        into the same ring.  Returns whether a ring was recording.
        """
        ring = self._history
        if ring is None or ring.closed:
            return False
        ring.close()
        return True

    def spill_history(self, path, **writer_kwargs):
        """Seal and persist the history ring to chunked trace segments.

        The daemon calls this on graceful drain so :meth:`evaluate_recent`
        history survives a restart; a later :meth:`restore_history` on a
        fresh service yields identical replay rankings.  No-op (returns
        ``None``) when history was never enabled.
        """
        if self._history is None:
            return None
        return self._history.spill(path, **writer_kwargs)

    def restore_history(self, path, **ring_kwargs):
        """Reload a spilled history ring (enabling history if needed)."""
        ring = self.enable_history(**ring_kwargs)
        ring.load(path)
        return ring

    def _publish_cycle(self, report, now: float) -> None:
        """Publish a cycle marker for the history ring when the pipeline won't."""
        taps = self._history_taps
        if taps is None or not taps.has_subscribers("cycle"):
            return
        if getattr(self.pipeline, "taps", None) is taps:
            return  # the pipeline already published this cycle
        from repro.replay.trace import serialize_cycle_report

        merged = getattr(report, "report", report)  # ShardedCycleReport → fleet report
        # Floor the stamp at the catalog clock so a caller omitting `now`
        # cannot publish a cycle event earlier than already-recorded commits.
        t = max(now, self._history.catalog.clock.now)
        taps.publish("cycle", {"t": t, "report": serialize_cycle_report(merged)})

    def evaluate_recent(
        self,
        variants,
        window: int | None = None,
        rank_by: str = "efficiency",
        workers: int = 1,
        perturb=None,
    ):
        """Rank candidate policies against this deployment's recent history.

        Replays the last ``window`` history segments (None = the whole
        ring) under each :class:`~repro.replay.variants.PolicyVariant`
        offline — the live catalog is never touched — and returns the
        ranked :class:`~repro.replay.whatif.WhatIfReport`.  The §5
        deployment loop this closes: a running service can ask "would a
        different k / weight / cadence have served the last weeks better?"
        and warm-start tuning from the answer
        (:meth:`~repro.replay.whatif.WhatIfReport.to_priors`).

        Args:
            variants: policy points to evaluate (unique names).
            window: most-recent history segments to replay.
            rank_by: report ranking key (``efficiency`` / ``files_reduced``
                / ``gbhr``).
            workers: replays in flight (history traces are in-memory, so
                sweeps run on threads; replay work is CPU-bound Python and
                1 is usually right).
            perturb: optional workload perturbation applied to every
                replay, baseline included.

        Raises:
            ValidationError: when :meth:`enable_history` was never called.
        """
        if self._history is None:
            raise ValidationError(
                "call enable_history() before evaluate_recent() — the service "
                "has no recorded history to replay"
            )
        from repro.replay.whatif import WhatIfRunner

        trace = self._history.trace(window)
        with WhatIfRunner(trace, list(variants), rank_by=rank_by, perturb=perturb) as runner:
            return runner.run(workers=workers)
