"""The OODA pipeline: observe → orient → decide → act (§3.3, Figure 4).

One :meth:`AutoCompPipeline.run_cycle` call performs a full pass:

1. **generate** candidate keys from the connector (table / partition /
   hybrid strategy);
2. **observe** — collect the standardized statistics for each key, then
   apply the statistics filters;
3. **orient** — compute every registered trait;
4. **decide** — rank with the configured policy and select within budget;
5. **act** — hand the selected tasks to the scheduler/backend.

An optional feedback loop (act → observe) invokes registered hooks with
each cycle's report, letting deployments adapt parameters over time —
e.g. LinkedIn's transition from fixed to dynamic k.

Every phase is deterministic given identical inputs (NFR2), and each
component is swappable (NFR1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.candidates import Candidate, CandidateKey
from repro.core.connectors import Connector
from repro.core.filters import CandidateFilter, apply_filters
from repro.core.ranking import RankingPolicy
from repro.core.scheduling import (
    CompactionTask,
    ExecutionBackend,
    ExecutionResult,
    Scheduler,
)
from repro.core.selection import Selector
from repro.core.traits import Trait, TraitRegistry
from repro.errors import ValidationError
from repro.obs.tracing import Tracer, make_span, timed
from repro.simulation.simulator import Simulator
from repro.simulation.telemetry import BYTES_BOUNDS, Telemetry


@dataclass
class CycleReport:
    """What one OODA cycle saw, decided and did."""

    cycle_index: int
    started_at: float
    candidates_generated: int = 0
    after_stats_filters: int = 0
    ranked: int = 0
    #: Selected candidates withheld by act gates (admission quotas, lock
    #: contention) before execution.
    gated: int = 0
    selected: list[CandidateKey] = field(default_factory=list)
    #: Results land here synchronously, or asynchronously as simulated
    #: compaction jobs complete (the list object is shared with the
    #: scheduler's callback).
    results: list[ExecutionResult] = field(default_factory=list)

    @property
    def successes(self) -> int:
        """Completed compactions."""
        return sum(1 for r in self.results if r.success)

    @property
    def conflicts(self) -> int:
        """Cluster-side conflicts among results."""
        return sum(1 for r in self.results if not r.success and not r.skipped)

    @property
    def total_gbhr(self) -> float:
        """Compute spent (including wasted work on conflicted jobs)."""
        return sum(r.gbhr for r in self.results)

    @property
    def total_files_reduced(self) -> int:
        """Actual net file-count reduction achieved."""
        return sum(r.actual_reduction for r in self.results)


class AutoCompPipeline:
    """A configured AutoComp instance.

    Args:
        connector: platform adapter (candidates + statistics).
        backend: act-phase executor.
        traits: orient-phase traits (list or registry).
        policy: decide-phase ranking policy.
        selector: decide-phase budget selection.
        scheduler: act-phase ordering/concurrency.
        generation: candidate-generation strategy
            (``table`` / ``partition`` / ``hybrid``).
        stats_filters: filters applied after observe.
        telemetry: metric sink for cycle statistics.
        feedback_hooks: callables invoked with each finished
            :class:`CycleReport` (the optional act→observe loop).

    Attributes:
        tracer: a :class:`repro.obs.tracing.Tracer`, or None (the
            default); once assigned (``pipeline.tracer = Tracer()``), each
            ``run_cycle`` produces a ``cycle → observe/decide/act →
            rewrite`` span tree and per-phase wall-clock histograms.
        taps: an event bus, or None (the default); once assigned
            (``pipeline.taps = bus``), every finished cycle publishes a
            ``cycle`` event carrying the fully serialized report — the
            Policy Lab's catalog-trace cadence marker.  Leave unset on the
            per-shard pipelines of a sharded plane (the coordinator
            publishes the merged report instead).
    """

    def __init__(
        self,
        connector: Connector,
        backend: ExecutionBackend,
        traits: TraitRegistry | Sequence[Trait],
        policy: RankingPolicy,
        selector: Selector,
        scheduler: Scheduler,
        generation: str = "table",
        stats_filters: Sequence[CandidateFilter] = (),
        telemetry: Telemetry | None = None,
        feedback_hooks: Sequence[Callable[[CycleReport], None]] = (),
    ) -> None:
        self.connector = connector
        self.backend = backend
        self.traits = (
            traits if isinstance(traits, TraitRegistry) else TraitRegistry(list(traits))
        )
        self.policy = policy
        self.selector = selector
        self.scheduler = scheduler
        self.generation = validate_generation_strategy(generation)
        self.stats_filters = list(stats_filters)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer: Tracer | None = None
        self.feedback_hooks = list(feedback_hooks)
        self.taps = None
        #: Act gates: callables ``gate(selected) -> selected`` applied in
        #: order between decide and act.  The daemonized control plane
        #: installs admission quotas and per-table lock acquisition here,
        #: so concurrent cycles agree on who executes what *after* ranking
        #: but *before* any task is built.
        self.act_gates: list[Callable[[list[Candidate]], list[Candidate]]] = []
        self._cycle_index = 0

    def invalidate(self, key: CandidateKey) -> None:
        """Write-event hook: forward a notification to the connector's cache.

        The uniform entry point service inboxes call — the sharded plane
        overrides it to route each key to the shard that owns it.
        """
        self.connector.invalidate(key)

    def run_cycle(self, now: float = 0.0, simulator: Simulator | None = None) -> CycleReport:
        """Run one full OODA pass.

        Args:
            now: current time for filters and reporting; ignored when a
                simulator is given (its clock wins).
            simulator: when provided, act-phase jobs are scheduled as
                simulated events and the report's ``results`` list fills in
                as they complete.

        Returns:
            The cycle's :class:`CycleReport`.
        """
        if simulator is not None:
            now = simulator.now
        report = self.begin_cycle(now)
        tracer = self.tracer
        telemetry = self.telemetry
        with timed(
            tracer,
            "cycle",
            "autocomp.hist.cycle_wall_s",
            telemetry,
            cycle_index=report.cycle_index,
        ) as cycle:
            keys = self.generate(report)
            with timed(tracer, "observe", "autocomp.hist.observe_wall_s", telemetry):
                candidates = self.observe_orient(keys, now, report)
            with timed(tracer, "decide", "autocomp.hist.decide_wall_s", telemetry):
                selected = self.decide(candidates, report)
            with timed(tracer, "act", "autocomp.hist.act_wall_s", telemetry):
                self.act(selected, report, simulator=simulator)
            self.finish_cycle(report, now)
            cycle.note(selected=len(report.selected))
        return report

    # --- phases ----------------------------------------------------------------
    #
    # ``run_cycle`` composes these; the scale-out control plane
    # (:class:`~repro.core.sharding.ShardedPipeline`) calls them directly so
    # it can run the observe/orient phases of many shards concurrently and
    # interpose a fleet-level decide phase between orient and act.

    def begin_cycle(self, now: float) -> CycleReport:
        """Allocate the next cycle's report (advances the cycle index)."""
        report = CycleReport(cycle_index=self._cycle_index, started_at=now)
        self._cycle_index += 1
        return report

    def generate(self, report: CycleReport | None = None) -> list[CandidateKey]:
        """Generate phase: candidate keys from the connector."""
        keys = self.connector.list_candidates(self.generation)
        if report is not None:
            report.candidates_generated = len(keys)
        return keys

    def worker_transport(self):
        """This pipeline's :class:`~repro.core.transport.ColumnarTransport`.

        None when the connector cannot feed process workers.  Delegates to
        :meth:`~repro.core.connectors.Connector.worker_transport`.  The
        sharded control plane builds each shard's transport through this
        hook (rather than reaching into the connector directly), so
        pipeline subclasses can interpose on how their shard's work
        crosses the process boundary.
        """
        return self.connector.worker_transport()

    def observe_orient(
        self, keys: list[CandidateKey], now: float, report: CycleReport | None = None
    ) -> list[Candidate]:
        """Observe + orient phases: statistics, filters, traits.

        Pure with respect to pipeline state (only the connector's stats
        cache may be updated), so disjoint key subsets can be processed
        concurrently by different shards.
        """
        candidates = self.connector.observe(keys)
        return self.orient(
            candidates, now, report, only_missing=self.connector.reuses_candidates
        )

    def orient(
        self,
        candidates: list[Candidate],
        now: float,
        report: CycleReport | None = None,
        only_missing: bool = True,
    ) -> list[Candidate]:
        """Orient phase over already observed candidates: filter, then annotate.

        Split out of :meth:`observe_orient` for callers that observe
        elsewhere — the process-mode sharded control plane receives
        observed *and* trait-annotated candidates back from shard workers
        and only needs the filter pass here (``only_missing=True`` then
        skips the already-annotated candidates).
        """
        candidates = apply_filters(self.stats_filters, candidates, now)
        if report is not None:
            report.after_stats_filters = len(candidates)
        self.traits.annotate_all(candidates, only_missing=only_missing)
        return candidates

    def decide(
        self, candidates: list[Candidate], report: CycleReport | None = None
    ) -> list[Candidate]:
        """Decide phase: rank with the policy, select within budget."""
        ranked = self.policy.rank(candidates)
        if report is not None:
            report.ranked = len(ranked)
        selected = self.selector.select(ranked)
        if report is not None:
            report.selected = [c.key for c in selected]
        return selected

    def act(
        self,
        selected: Sequence[Candidate],
        report: CycleReport,
        simulator: Simulator | None = None,
        on_result: Callable[[ExecutionResult], None] | None = None,
    ) -> None:
        """Act phase: hand the selected candidates to the scheduler.

        Args:
            selected: candidates in execution order.
            report: results are appended here (synchronously, or as
                simulated jobs complete).
            simulator: event-driven mode when given.
            on_result: extra observer for each result (the sharded control
                plane uses it to mirror results into the fleet report).
        """
        selected = list(selected)
        for gate in self.act_gates:
            before = len(selected)
            selected = list(gate(selected))
            dropped = before - len(selected)
            report.gated += dropped
            if dropped:
                self.telemetry.increment("autocomp.act.gated", dropped)
        tasks = [CompactionTask.from_candidate(c) for c in selected]

        def record(result: ExecutionResult) -> None:
            report.results.append(result)
            self._record_result(result)
            if result.success:
                # A compaction rewrites the table: evict its cached
                # statistics so the next observe phase sees the new state
                # (token-based caches self-heal; event-based ones need this).
                self.connector.invalidate(result.candidate)
            if on_result is not None:
                on_result(result)

        backend = self.backend
        if self.tracer is not None and tasks:
            # Wrap the backend so every prepared job carries a "rewrite"
            # span from start() to finish(), parented under the act span
            # (or whatever is current when the tasks are handed over).
            backend = _TracedBackend(backend, self.tracer, self.tracer.current())
        sync_results = self.scheduler.schedule(
            tasks, backend, simulator=simulator, on_result=record
        )
        # Sync mode returns results directly; ``record`` already captured them.
        del sync_results

    def finish_cycle(self, report: CycleReport, now: float) -> None:
        """Record cycle telemetry, publish the cycle event, fire feedback hooks."""
        self._record_cycle(report, now)
        if self.taps is not None and self.taps.has_subscribers("cycle"):
            # Imported lazily: repro.replay sits above repro.core in the
            # layering, so a module-level import would be circular.
            from repro.replay.trace import serialize_cycle_report

            # Callers that never pass `now` (it defaults to 0.0) must not
            # stamp a cycle event *before* the commits already recorded at
            # catalog-clock time — that trace would fail the reader's
            # non-decreasing-time validation.  The connector's clock, when
            # it has one, is the authoritative floor.
            catalog = getattr(self.connector, "catalog", None)
            t = now if catalog is None else max(now, catalog.clock.now)
            self.taps.publish("cycle", {"t": t, "report": serialize_cycle_report(report)})
        for hook in self.feedback_hooks:
            hook(report)

    # --- telemetry -------------------------------------------------------------

    def _record_cycle(self, report: CycleReport, now: float) -> None:
        self.telemetry.record("autocomp.cycle.candidates", now, report.candidates_generated)
        self.telemetry.record("autocomp.cycle.selected", now, len(report.selected))
        self.telemetry.increment("autocomp.cycles")

    def _record_result(self, result: ExecutionResult) -> None:
        if result.skipped:
            self.telemetry.increment("autocomp.results.skipped")
        elif result.success:
            self.telemetry.increment("autocomp.results.success")
            self.telemetry.record(
                "autocomp.files_reduced", result.finished_at, result.actual_reduction
            )
            self.telemetry.record("autocomp.gbhr", result.finished_at, result.gbhr)
            self.telemetry.observe(
                "autocomp.hist.rewrite_bytes",
                result.rewritten_bytes,
                bounds=BYTES_BOUNDS,
            )
        else:
            self.telemetry.increment("autocomp.results.conflict")


class _TracedJob:
    """Wraps a :class:`~repro.core.scheduling.PreparedJob` in a rewrite span.

    Simulated jobs interleave, so the rewrite span never touches the
    tracer's thread-local stack: ``start()`` stamps the wall clock,
    ``finish()`` builds the :class:`~repro.obs.tracing.Span` in one shot
    (cheaper than begin/end for the per-job hot path — a cycle acts on
    many jobs) and hands it to :meth:`~repro.obs.tracing.Tracer.adopt`.
    """

    def __init__(self, job, task: CompactionTask, tracer: Tracer, parent) -> None:
        self._job = job
        self._task = task
        self._tracer = tracer
        self._parent = parent
        self._start_s = None

    def __getattr__(self, name):
        return getattr(self._job, name)

    def start(self):
        self._start_s = time.time()
        return self._job.start()

    def finish(self):
        result = self._job.finish()
        if self._start_s is not None:
            self._tracer.adopt([
                make_span(
                    "rewrite",
                    self._parent,
                    self._start_s,
                    time.time(),
                    key=str(self._task.candidate.key),
                    success=result.success,
                    skipped=result.skipped,
                    rewritten_bytes=result.rewritten_bytes,
                )
            ])
            self._start_s = None
        return result


class _TracedBackend:
    """Backend proxy that emits one ``rewrite`` span per executed job."""

    def __init__(self, backend: ExecutionBackend, tracer: Tracer, parent) -> None:
        self._backend = backend
        self._tracer = tracer
        self._parent = parent

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def prepare(self, task: CompactionTask):
        job = self._backend.prepare(task)
        if job is None:
            return None
        return _TracedJob(job, task, self._tracer, self._parent)


def validate_generation_strategy(strategy: str) -> str:
    """Validate a generation-strategy name, returning it unchanged."""
    from repro.core.candidates import GENERATION_STRATEGIES

    if strategy not in GENERATION_STRATEGIES:
        raise ValidationError(
            f"unknown generation strategy {strategy!r}; expected one of "
            f"{GENERATION_STRATEGIES}"
        )
    return strategy
