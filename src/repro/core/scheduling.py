"""The act phase: execution backends and compaction schedulers (§4.4).

AutoComp separates *what* to compact (decide) from *how/when* to run it
(act).  The act phase is parameterised twice:

* an :class:`ExecutionBackend` turns a selected candidate into a runnable
  job on the deployment platform (live LST tables here; the fleet model in
  :mod:`repro.fleet` provides another backend), and
* a :class:`Scheduler` decides ordering and concurrency.  The paper found
  that with Iceberg v1.2.0 even compactions of *distinct partitions*
  conflict, so its deployment compacts tables in parallel but partitions
  of one table sequentially — ``ConcurrentScheduler(table_serial=True)``
  encodes exactly that, while :class:`ParallelScheduler` exists to
  demonstrate the conflict storm you get without it (Table 1's
  cluster-side column).  :class:`ConcurrentScheduler` runs independent
  chains concurrently, optionally under a parallelism cap, while ordered
  work stays ordered — per table with ``table_serial=True`` (safe on the
  Iceberg v1.2.0 profile), or per partition by default (Delta-profile
  granularity).

Schedulers run in two modes: synchronous (no simulator — every scheduler
runs the jobs back-to-back in priority order with no simulated time
passing, for examples and fleet steps) and event-driven (a simulator is
provided — jobs occupy simulated time and can race concurrent user
writes; each scheduler's :meth:`Scheduler._launch` decides the overlap).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.candidates import Candidate, CandidateKey, CandidateScope
from repro.core.connectors import LstConnector
from repro.engine.cluster import Cluster
from repro.engine.cost_model import CostModel
from repro.engine.jobs import CompactionJob, CompactionOutcome
from repro.errors import SchedulingError, ValidationError
from repro.lst.maintenance import plan_table_rewrite
from repro.simulation.simulator import Simulator
from repro.units import HOUR


@dataclass(frozen=True)
class CompactionTask:
    """A selected candidate plus its decide-phase estimates."""

    candidate: Candidate
    estimated_gbhr: float = 0.0
    estimated_reduction: float = 0.0

    @classmethod
    def from_candidate(cls, candidate: Candidate) -> "CompactionTask":
        """Build a task, pulling estimates from traits when present."""
        return cls(
            candidate=candidate,
            estimated_gbhr=candidate.traits.get("compute_cost_gbhr", 0.0),
            estimated_reduction=candidate.traits.get("file_count_reduction", 0.0),
        )


@dataclass(frozen=True)
class ExecutionResult:
    """Backend-agnostic outcome of one act-phase job."""

    candidate: CandidateKey
    success: bool
    skipped: bool
    conflict_reason: str | None
    started_at: float
    finished_at: float
    duration_s: float
    gbhr: float
    files_before: int
    files_after: int
    estimated_reduction: float
    actual_reduction: int
    rewritten_bytes: int
    estimated_gbhr: float = 0.0

    @classmethod
    def skipped_result(cls, task: CompactionTask, now: float) -> "ExecutionResult":
        """Result for a candidate whose rewrite plan turned out empty."""
        return cls(
            candidate=task.candidate.key,
            success=False,
            skipped=True,
            conflict_reason=None,
            started_at=now,
            finished_at=now,
            duration_s=0.0,
            gbhr=0.0,
            files_before=0,
            files_after=0,
            estimated_reduction=task.estimated_reduction,
            actual_reduction=0,
            rewritten_bytes=0,
            estimated_gbhr=task.estimated_gbhr,
        )


class PreparedJob(abc.ABC):
    """A backend job ready to run, with an explicit start/finish window."""

    @abc.abstractmethod
    def start(self) -> float:
        """Begin the job at the current simulated time; returns duration."""

    @abc.abstractmethod
    def finish(self) -> ExecutionResult:
        """Complete the job at the current simulated time."""


class ExecutionBackend(abc.ABC):
    """Turns candidates into runnable jobs on the deployment platform."""

    @abc.abstractmethod
    def prepare(self, task: CompactionTask) -> PreparedJob | None:
        """A runnable job, or None when there is nothing worth rewriting."""


class _LstPreparedJob(PreparedJob):
    def __init__(self, job: CompactionJob, task: CompactionTask) -> None:
        self._job = job
        self._task = task

    def start(self) -> float:
        return self._job.start()

    def finish(self) -> ExecutionResult:
        outcome: CompactionOutcome = self._job.finish()
        return ExecutionResult(
            candidate=self._task.candidate.key,
            success=outcome.success,
            skipped=False,
            conflict_reason=outcome.conflict_reason,
            started_at=outcome.started_at,
            finished_at=outcome.finished_at,
            duration_s=outcome.duration_s,
            gbhr=outcome.gbhr,
            files_before=outcome.files_before,
            files_after=outcome.files_after,
            estimated_reduction=self._task.estimated_reduction,
            actual_reduction=outcome.actual_reduction,
            rewritten_bytes=outcome.rewritten_bytes,
            estimated_gbhr=self._task.estimated_gbhr,
        )


class LstExecutionBackend(ExecutionBackend):
    """Runs compaction jobs against live catalog tables.

    Args:
        connector: resolves candidate keys to tables.
        cluster: the (dedicated) compaction cluster.
        cost_model: duration/GBHr model; defaults to :class:`CostModel`.

    Partitions with fewer than two small files are not rewritten.
    """

    def __init__(
        self,
        connector: LstConnector,
        cluster: Cluster,
        cost_model: CostModel | None = None,
    ) -> None:
        self.connector = connector
        self.cluster = cluster
        self.cost_model = cost_model if cost_model is not None else CostModel()

    def prepare(self, task: CompactionTask) -> PreparedJob | None:
        key = task.candidate.key
        table = self.connector.table_for(key)
        if key.scope is CandidateScope.SNAPSHOT:
            # Snapshot scope: rewrite only the files added since the base
            # snapshot (the fresh-data subset).
            from repro.lst.maintenance import plan_rewrite

            plan = plan_rewrite(
                self.connector.files_for(key),
                target_file_size=table.target_file_size,
                table=str(table.identifier),
            )
        else:
            partitions = (
                [key.partition] if key.scope is CandidateScope.PARTITION else None
            )
            plan = plan_table_rewrite(table, partitions=partitions)
        if plan.is_empty:
            return None
        job = CompactionJob(
            table,
            plan,
            self.cluster,
            cost_model=self.cost_model,
            telemetry=table.telemetry,
            clock=table.clock,
        )
        return _LstPreparedJob(job, task)


class Scheduler(abc.ABC):
    """Orders and (optionally) parallelises act-phase jobs."""

    def schedule(
        self,
        tasks: list[CompactionTask],
        backend: ExecutionBackend,
        simulator: Simulator | None = None,
        on_result=None,
    ) -> list[ExecutionResult]:
        """Run (or enqueue) the tasks.

        Args:
            tasks: selected candidates in priority order.
            backend: platform executor.
            simulator: when given, jobs are scheduled as simulated events
                and the return value is empty — results flow through
                ``on_result`` as the events complete.  When None, jobs run
                synchronously in priority order and results are returned.
            on_result: optional callback invoked with each
                :class:`ExecutionResult`.
        """
        if simulator is None:
            results = []
            for task in tasks:
                job = backend.prepare(task)
                if job is None:
                    result = ExecutionResult.skipped_result(task, 0.0)
                else:
                    job.start()
                    result = job.finish()
                results.append(result)
                if on_result is not None:
                    on_result(result)
            return results
        self._launch(tasks, backend, simulator, on_result)
        return []

    @abc.abstractmethod
    def _launch(
        self,
        tasks: list[CompactionTask],
        backend: ExecutionBackend,
        simulator: Simulator,
        on_result,
    ) -> None:
        """Enqueue the tasks as simulated events (the scheduler's overlap)."""

    @staticmethod
    def _run_chain(
        tasks: list[CompactionTask],
        backend: ExecutionBackend,
        simulator: Simulator,
        on_result,
        on_done=None,
    ) -> None:
        """Run tasks back-to-back as simulated events.

        ``on_done`` (when given) fires once the whole chain has drained —
        concurrency-capped schedulers use it to launch the next chain.
        """
        queue = list(tasks)

        def start_next() -> None:
            while queue:
                task = queue.pop(0)
                job = backend.prepare(task)
                if job is None:
                    result = ExecutionResult.skipped_result(task, simulator.now)
                    if on_result is not None:
                        on_result(result)
                    continue
                duration = job.start()

                def finish(job=job) -> None:
                    result = job.finish()
                    if on_result is not None:
                        on_result(result)
                    start_next()

                simulator.after(duration, finish, name="compaction-finish")
                return
            if on_done is not None:
                on_done()

        start_next()


class SequentialScheduler(Scheduler):
    """All tasks back-to-back on the compaction cluster.

    The safest ordering for formats where any concurrency risks conflicts;
    used when compaction shares a cluster with user queries ("scheduled
    sequentially to mitigate resource contention", §4.4).
    """

    def _launch(self, tasks, backend, simulator, on_result):
        self._run_chain(tasks, backend, simulator, on_result)


class ParallelScheduler(Scheduler):
    """All tasks start immediately, fully concurrent.

    With the Iceberg v1.2.0 profile this deliberately reproduces the
    cluster-side conflict storm of Table 1; with the Delta profile (file-
    granularity validation) it is safe for disjoint candidates.
    """

    def _launch(self, tasks, backend, simulator, on_result):
        for task in tasks:
            self._run_chain([task], backend, simulator, on_result)


class ConcurrentScheduler(Scheduler):
    """Independent chains in parallel, optionally under a concurrency cap.

    Tasks are grouped into *chains* of work that must stay ordered:

    * by ``(table, partition)`` by default — two tasks touching the same
      partition never overlap, but distinct partitions of one table *do*
      run concurrently.  That is only conflict-free on formats with
      file-granularity commit validation (the Delta profile);
    * by table when ``table_serial=True`` — tables in parallel, the
      partitions of one table sequentially (§6): the paper's
      hybrid-strategy scheduler, required for formats where even
      distinct-partition rewrites of one table conflict (the Iceberg
      v1.2.0 profile of Table 1, this repo's default table profile).

    Args:
        max_parallelism: simulator mode: at most this many chains run
            concurrently; the next chain launches as one finishes.  None
            means all chains start immediately.
        table_serial: chain by table instead of by partition.
    """

    def __init__(
        self,
        max_parallelism: int | None = None,
        table_serial: bool = False,
    ) -> None:
        if max_parallelism is not None and max_parallelism <= 0:
            raise ValidationError("max_parallelism must be positive")
        self.max_parallelism = max_parallelism
        self.table_serial = table_serial

    def _chains(self, tasks: list[CompactionTask]) -> list[list[CompactionTask]]:
        """Group tasks into ordered chains, preserving arrival order.

        A table-scope (or snapshot-scope) task touches every partition, so
        any table with a non-partition-scope task collapses to a single
        chain — partition-granular concurrency only applies to tables whose
        tasks are all partition-scoped.
        """
        whole_table: set[str] = set()
        if not self.table_serial:
            for task in tasks:
                key = task.candidate.key
                if key.scope is not CandidateScope.PARTITION:
                    whole_table.add(key.qualified_table)
        chains: dict[tuple, list[CompactionTask]] = {}
        for task in tasks:
            key = task.candidate.key
            table = key.qualified_table
            partition = (
                None
                if self.table_serial or table in whole_table
                else key.partition
            )
            chains.setdefault((table, partition), []).append(task)
        return list(chains.values())

    def _launch(self, tasks, backend, simulator, on_result):
        chains = self._chains(tasks)
        if self.max_parallelism is None:
            for chain in chains:
                self._run_chain(chain, backend, simulator, on_result)
            return
        pending = list(chains)
        # Trampoline: a chain whose jobs all skip completes synchronously
        # and re-enters launch_next from its on_done — loop on a wake
        # counter instead of recursing, so a long run of empty chains
        # cannot overflow the stack.
        state = {"active": False, "wake": 0}

        def launch_next() -> None:
            state["wake"] += 1
            if state["active"]:
                return
            state["active"] = True
            try:
                while state["wake"] > 0 and pending:
                    state["wake"] -= 1
                    chain = pending.pop(0)
                    self._run_chain(
                        chain, backend, simulator, on_result, on_done=launch_next
                    )
                state["wake"] = 0
            finally:
                state["active"] = False

        for _ in range(min(self.max_parallelism, len(pending))):
            launch_next()


class OffPeakScheduler(Scheduler):
    """Defer an inner scheduler to the next off-peak window.

    Args:
        inner: scheduler to run once the window opens.
        window_start_hour: daily window start (0–24, simulated hours).
        window_end_hour: daily window end; may wrap past midnight.
    """

    def __init__(
        self,
        inner: Scheduler,
        window_start_hour: float = 1.0,
        window_end_hour: float = 5.0,
    ) -> None:
        if not 0 <= window_start_hour < 24 or not 0 <= window_end_hour < 24:
            raise ValidationError("window hours must be in [0, 24)")
        self.inner = inner
        self.window_start_hour = window_start_hour
        self.window_end_hour = window_end_hour

    def seconds_until_window(self, now: float) -> float:
        """Delay from ``now`` until the next window opening (0 if inside)."""
        hour_of_day = (now % (24 * HOUR)) / HOUR
        start, end = self.window_start_hour, self.window_end_hour
        if start <= end:
            inside = start <= hour_of_day < end
        else:  # window wraps midnight
            inside = hour_of_day >= start or hour_of_day < end
        if inside:
            return 0.0
        delta_hours = (start - hour_of_day) % 24
        return delta_hours * HOUR

    def schedule(self, tasks, backend, simulator=None, on_result=None):
        if simulator is None:
            raise SchedulingError("OffPeakScheduler requires a simulator")
        return super().schedule(tasks, backend, simulator, on_result)

    def _launch(self, tasks, backend, simulator, on_result):
        delay = self.seconds_until_window(simulator.now)
        if delay == 0:
            self.inner.schedule(tasks, backend, simulator, on_result)
            return
        simulator.after(
            delay,
            lambda: self.inner.schedule(tasks, backend, simulator, on_result),
            name="offpeak-window",
        )
