"""Execution triggers: when compaction runs (FR3, §5).

Two automatic modes, as in the paper:

* **Periodic** (:class:`PeriodicTrigger`) — a pull model: the pipeline runs
  on a schedule (hourly in §6, daily in the LinkedIn deployment),
  evaluating the whole candidate space each cycle.
* **Optimize-after-write** (:class:`OptimizeAfterWriteHook`) — a push
  model: an engine-side hook fires after each write commit, re-evaluates
  the written table's trigger trait, and either compacts immediately
  (unlimited budget; the §6.3 auto-tuning setup) or merely notifies the
  standalone service that traits need recalculation (decoupled mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.candidates import Candidate, CandidateKey, CandidateScope
from repro.core.connectors import Connector
from repro.core.pipeline import AutoCompPipeline, CycleReport
from repro.core.scheduling import CompactionTask, ExecutionBackend, ExecutionResult
from repro.core.traits import Trait
from repro.errors import ValidationError
from repro.lst.base import BaseTable
from repro.simulation.simulator import Simulator


class PeriodicTrigger:
    """Run a pipeline every ``interval_s`` simulated seconds.

    Args:
        pipeline: the configured AutoComp pipeline.
        interval_s: cycle spacing (1 hour in the §6 experiments).
        until: stop scheduling cycles at/after this simulated time.

    Attributes:
        reports: accumulated :class:`CycleReport` objects, one per cycle.
    """

    def __init__(
        self, pipeline: AutoCompPipeline, interval_s: float, until: float | None = None
    ) -> None:
        if interval_s <= 0:
            raise ValidationError("interval_s must be positive")
        self.pipeline = pipeline
        self.interval_s = interval_s
        self.until = until
        self.reports: list[CycleReport] = []

    def attach(self, simulator: Simulator) -> "PeriodicTrigger":
        """Arm the trigger on a simulator; returns self for chaining."""

        def fire() -> None:
            report = self.pipeline.run_cycle(simulator=simulator)
            self.reports.append(report)

        simulator.every(self.interval_s, fire, name="autocomp-cycle", until=self.until)
        return self


@dataclass
class HookDecision:
    """What an optimize-after-write evaluation concluded."""

    table: str
    trait_value: float
    triggered: bool
    result: ExecutionResult | None = None


class OptimizeAfterWriteHook:
    """Engine-side post-write compaction hook (§5, push model).

    Args:
        connector: used to (re)collect statistics for the written table.
        trait: trigger trait (e.g. small-file count or file entropy —
            the two traits tuned in §6.3).
        threshold: trait value at/above which the hook fires.
        backend: used in ``immediate`` mode to run the compaction job
            synchronously.
        mode: ``immediate`` (compact now, unconstrained budget) or
            ``notify`` (invoke ``notify`` and let the standalone service
            schedule work — decoupled, resource-controlled).
        notify: callback receiving the :class:`CandidateKey` in
            ``notify`` mode.
        cooldown_s: minimum spacing between triggers per table, preventing
            compaction storms on hot tables.

    Attributes:
        decisions: every evaluation the hook made (for explainability).
    """

    def __init__(
        self,
        connector: Connector,
        trait: Trait,
        threshold: float,
        backend: ExecutionBackend | None = None,
        mode: str = "immediate",
        notify: Callable[[CandidateKey], None] | None = None,
        cooldown_s: float = 0.0,
    ) -> None:
        if mode not in ("immediate", "notify"):
            raise ValidationError(f"mode must be immediate|notify, got {mode!r}")
        if mode == "immediate" and backend is None:
            raise ValidationError("immediate mode requires an execution backend")
        if mode == "notify" and notify is None:
            raise ValidationError("notify mode requires a notify callback")
        if cooldown_s < 0:
            raise ValidationError("cooldown_s must be >= 0")
        self.connector = connector
        self.trait = trait
        self.threshold = threshold
        self.backend = backend
        self.mode = mode
        self.notify = notify
        self.cooldown_s = cooldown_s
        self.decisions: list[HookDecision] = []
        self._last_trigger: dict[str, float] = {}

    def on_write(self, table: BaseTable) -> HookDecision:
        """Evaluate the hook after a write committed to ``table``.

        Returns:
            The :class:`HookDecision`, including the compaction result when
            one ran.
        """
        now = table.clock.now
        ident = table.identifier
        key = CandidateKey(
            database=ident.database, table=ident.name, scope=CandidateScope.TABLE
        )
        stats = self.connector.collect_statistics(key)
        value = float(self.trait.compute(stats))
        qualified = key.qualified_table

        in_cooldown = (
            qualified in self._last_trigger
            and now - self._last_trigger[qualified] < self.cooldown_s
        )
        if value < self.threshold or in_cooldown:
            decision = HookDecision(table=qualified, trait_value=value, triggered=False)
            self.decisions.append(decision)
            return decision

        self._last_trigger[qualified] = now
        result: ExecutionResult | None = None
        if self.mode == "immediate":
            candidate = Candidate(key=key, statistics=stats)
            self.trait.annotate(candidate)
            task = CompactionTask.from_candidate(candidate)
            job = self.backend.prepare(task)
            if job is None:
                result = ExecutionResult.skipped_result(task, now)
            else:
                job.start()
                result = job.finish()
        else:
            self.notify(key)

        decision = HookDecision(
            table=qualified, trait_value=value, triggered=True, result=result
        )
        self.decisions.append(decision)
        return decision
