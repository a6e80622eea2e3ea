"""The AutoComp daemon: scheduled multi-tenant cycles that survive crashes.

The paper's §7 production story is a *continuously running* compaction
service; :class:`AutoCompDaemon` is that run-forever layer over
:class:`~repro.core.service.AutoCompService`:

* **cadence** — a background thread fires ``service.run_cycle`` every
  ``interval_s`` wall-clock seconds, anchored to cycle *completion* (a
  long cycle delays the next tick instead of stacking overdue firings),
  or on a cron-style calendar schedule
  (:class:`~repro.core.cron.CronSchedule`, ``schedule="30 3 * * *"``);
* **self-driving policy** — an optional
  :class:`~repro.core.promoter.PolicyPromoter` ticks on its own cadence
  thread (every ``promoter_interval_s`` seconds),
  shadow-evaluating the candidate pool and promoting winners behind the
  guard window, with its state surfaced under ``status()["promoter"]``;
* **concurrency safety** — before any selected candidate executes, the
  daemon's act gates run: an optional
  :class:`~repro.core.fairness.AdmissionController` applies per-database
  quotas, then every candidate must win its per-table/partition lock file
  (:class:`~repro.core.locks.LockManager`).  Two daemon instances sharing
  one lock directory therefore never double-compact, however their
  schedules interleave — the lock audit log proves it after the fact
  (:func:`~repro.core.locks.verify_audit`);
* **crash safety** — :meth:`AutoCompDaemon.start` reclaims stale locks
  (dead pid or stale heartbeat mtime) left by crashed siblings, and a
  heartbeat thread keeps this instance's locks visibly alive;
* **graceful drain** — :meth:`AutoCompDaemon.stop` gives in-flight shard
  work a bounded timeout to finish
  (:meth:`~repro.core.workers.WorkerPool.close`), releases all locks, and
  spills the service's :class:`~repro.replay.catalog_trace.CatalogHistoryRing`
  to chunked trace segments so ``evaluate_recent`` history survives the
  restart;
* **durable progress** — :meth:`AutoCompDaemon.backfill` walks a large
  unit list through a file-based resumable state machine
  (:class:`ResumableStateMachine`, ``INIT → LOCKED → RUNNING → COMPLETE``
  per unit with :meth:`ResumableStateMachine.get_next_chunk` resume), so
  a 10k-table backfill killed with ``kill -9`` mid-fleet resumes from the
  last ``COMPLETE`` unit instead of starting over;
* **observability** — with ``obs_dir`` set the daemon runs a
  :class:`~repro.obs.exporter.MetricsExporter` that periodically writes
  the telemetry sink (Prometheus text + JSONL snapshots), the attached
  tracer's spans, and :meth:`AutoCompDaemon.status` to files under that
  directory; :meth:`AutoCompDaemon.serve_status` additionally exposes
  ``/status`` and ``/metrics`` over stdlib HTTP.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro import durable
from repro.core.candidates import Candidate
from repro.core.cron import as_schedule
from repro.core.fairness import AdmissionController
from repro.core.locks import LockManager, lock_slug
from repro.core.scheduling import CompactionTask, ExecutionResult
from repro.core.service import AutoCompService
from repro.errors import ValidationError
from repro.obs.exporter import MetricsExporter, render_prometheus

#: Resumable-unit lifecycle states, in order.
UNIT_STATES = ("INIT", "LOCKED", "RUNNING", "COMPLETE")

#: Seconds :meth:`AutoCompDaemon.stop` lets in-flight work finish (the
#: scheduler threads, and the worker pools' draining close).
DRAIN_TIMEOUT_S = 30.0


class ResumableStateMachine:
    """File-backed per-unit progress: ``INIT → LOCKED → RUNNING → COMPLETE``.

    One JSON file per unit under ``state_dir`` (atomic tmp-write +
    ``os.replace`` transitions), so progress survives ``kill -9`` at any
    point: on restart, :meth:`recover` demotes units caught mid-flight
    (``LOCKED``/``RUNNING``) back to ``INIT`` — their work may or may not
    have happened, and redoing an idempotent compaction unit is safe while
    skipping one is not — and :meth:`get_next_chunk` hands out only units
    still in ``INIT``, never touching ``COMPLETE`` ones.

    Args:
        state_dir: directory of unit state files (created if missing).
        clock: timestamp source for ``updated_at`` stamps.
    """

    def __init__(self, state_dir: str | os.PathLike, clock=time.time) -> None:
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        durable.sweep_temp_files(self.state_dir)
        self._clock = clock
        self._mutex = threading.Lock()
        self._states: dict[str, dict] = {}
        self._scan()

    def _path_for(self, unit: str) -> str:
        return os.path.join(self.state_dir, lock_slug(unit) + ".json")

    def _scan(self) -> None:
        for name in sorted(os.listdir(self.state_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.state_dir, name), encoding="utf-8") as stream:
                    record = json.load(stream)
            except (OSError, json.JSONDecodeError):
                continue  # torn write mid-crash: unit re-registers as INIT
            unit = record.get("unit")
            if unit and record.get("state") in UNIT_STATES:
                self._states[unit] = record

    def _write(self, record: dict) -> None:
        durable.atomic_write(self._path_for(record["unit"]), json.dumps(record))

    def register(self, units) -> int:
        """Ensure a state file exists for every unit (new ones start INIT).

        Returns how many units were newly registered; already-known units
        (any state) are left untouched, so re-running a backfill with the
        same unit list is a no-op for completed work.
        """
        added = 0
        with self._mutex:
            for unit in units:
                unit = str(unit)
                if unit in self._states:
                    continue
                record = {
                    "unit": unit,
                    "state": "INIT",
                    "updated_at": self._clock(),
                    "attempts": 0,
                }
                self._write(record)
                self._states[unit] = record
                added += 1
        return added

    def recover(self) -> list[str]:
        """Demote mid-flight units (``LOCKED``/``RUNNING``) back to ``INIT``.

        Call on startup after a crash; returns the demoted unit names.
        """
        reset = []
        with self._mutex:
            for unit, record in sorted(self._states.items()):
                if record["state"] in ("LOCKED", "RUNNING"):
                    self._transition(unit, "INIT")
                    reset.append(unit)
        return reset

    def _transition(self, unit: str, state: str) -> None:
        record = dict(self._states[unit])
        record["state"] = state
        record["updated_at"] = self._clock()
        if state == "RUNNING":
            record["attempts"] = record.get("attempts", 0) + 1
        self._write(record)
        self._states[unit] = record

    def get_next_chunk(self, n: int = 1, exclude=()) -> list[str]:
        """Claim up to ``n`` INIT units (moved to ``LOCKED``), sorted order.

        Empty list means the backfill is drained (or everything left is
        already claimed/complete).  Units in ``exclude`` are skipped —
        callers pass the units they just deferred (lock contention,
        unknown key) so releasing one back to ``INIT`` cannot make the
        claim loop spin on it.
        """
        if n <= 0:
            raise ValidationError("chunk size must be positive")
        claimed = []
        with self._mutex:
            for unit, record in sorted(self._states.items()):
                if record["state"] != "INIT" or unit in exclude:
                    continue
                self._transition(unit, "LOCKED")
                claimed.append(unit)
                if len(claimed) >= n:
                    break
        return claimed

    def mark_running(self, unit: str) -> None:
        """LOCKED → RUNNING (work is about to execute; attempts += 1)."""
        with self._mutex:
            self._transition(unit, "RUNNING")

    def mark_complete(self, unit: str) -> None:
        """→ COMPLETE (terminal; never handed out again)."""
        with self._mutex:
            self._transition(unit, "COMPLETE")

    def release(self, unit: str) -> None:
        """Put a claimed-but-unworked unit back to INIT (e.g. lock contention)."""
        with self._mutex:
            self._transition(unit, "INIT")

    def state_of(self, unit: str) -> str | None:
        """Current state of one unit (None = unknown)."""
        with self._mutex:
            record = self._states.get(str(unit))
            return record["state"] if record is not None else None

    def attempts_of(self, unit: str) -> int:
        """How many times the unit has entered ``RUNNING`` (0 = never)."""
        with self._mutex:
            record = self._states.get(str(unit))
            return int(record.get("attempts", 0)) if record is not None else 0

    def counts(self) -> dict[str, int]:
        """Units per state, every state present (possibly 0)."""
        totals = dict.fromkeys(UNIT_STATES, 0)
        with self._mutex:
            for record in self._states.values():
                totals[record["state"]] += 1
        return totals


class AutoCompDaemon:
    """Run an :class:`AutoCompService` continuously, safely, recoverably.

    Args:
        service: the service to drive (its pipeline may be sharded).
        locks: the lock manager shared (via its directory) by every daemon
            instance coordinating on this catalog.
        admission: optional per-database fairness quotas applied before
            lock acquisition each cycle.
        interval_s: wall-clock seconds between scheduled cycles (ignored
            for scheduling when ``schedule`` is set, but still bounds the
            scheduler-thread join at :meth:`stop`).
        schedule: optional cron-style calendar cadence for compaction
            cycles — a ``"m h dom mon dow"`` spec string (parsed by
            :class:`~repro.core.cron.CronSchedule`) or any object with a
            ``next_after(ts) -> float`` method.  Calendar-anchored: a
            cycle that overruns the next boundary skips to the following
            one instead of stacking firings.
        promoter: optional
            :class:`~repro.core.promoter.PolicyPromoter`; :meth:`start`
            attaches it to the service (policy-store seam, history ring,
            guard hooks) and drives :meth:`~repro.core.promoter.PolicyPromoter.step`
            on its own cadence thread.
        promoter_interval_s: fixed seconds between promoter steps
            (defaults to ``interval_s``) — shadow evaluation is usually
            much rarer than compaction, so set this longer in production.
        spill_path: when set, :meth:`stop` spills the service's history
            ring here (and :meth:`start` restores it when the file
            exists), so ``evaluate_recent`` sees the same history across
            restarts.
        tracer: optional :class:`~repro.obs.tracing.Tracer`; when given it
            is installed on the service pipeline (propagating to every
            shard) so cycles emit ``cycle → shard → observe/decide/act``
            spans, and the exporter dumps them alongside the metrics.
        obs_dir: when set, a :class:`~repro.obs.exporter.MetricsExporter`
            writes ``metrics.prom``/``metrics.jsonl``/``status.json`` (and
            trace dumps, when ``tracer`` is set) under this directory for
            the daemon's whole lifetime.
        export_interval_s: seconds between exporter flushes.

    Attributes:
        cycles_run: scheduled + manual cycles completed by this instance.
        cycle_errors: cycles that raised (logged to telemetry and
            swallowed — a daemon must outlive one bad cycle).
        promoter_steps: promoter ticks completed by this instance.
        promoter_errors: promoter ticks that raised and were survived.
    """

    def __init__(
        self,
        service: AutoCompService,
        locks: LockManager,
        admission: AdmissionController | None = None,
        interval_s: float = 60.0,
        schedule=None,
        promoter=None,
        promoter_interval_s: float | None = None,
        spill_path: str | os.PathLike | None = None,
        tracer=None,
        obs_dir: str | os.PathLike | None = None,
        export_interval_s: float = 5.0,
    ) -> None:
        if interval_s <= 0:
            raise ValidationError("interval_s must be positive")
        if promoter_interval_s is not None and promoter_interval_s <= 0:
            raise ValidationError("promoter_interval_s must be positive")
        if export_interval_s <= 0:
            raise ValidationError("export_interval_s must be positive")
        self.service = service
        self.locks = locks
        self.admission = admission
        self.interval_s = interval_s
        self.schedule = as_schedule(schedule)
        self.promoter = promoter
        self.promoter_interval_s = (
            promoter_interval_s if promoter_interval_s is not None else interval_s
        )
        self.spill_path = os.fspath(spill_path) if spill_path is not None else None
        self.tracer = tracer
        self.obs_dir = os.fspath(obs_dir) if obs_dir is not None else None
        self.export_interval_s = export_interval_s
        self.cycles_run = 0
        self.cycle_errors = 0
        self.promoter_steps = 0
        self.promoter_errors = 0
        self.reclaimed_on_start: list[str] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._promoter_thread: threading.Thread | None = None
        self._started = False
        self._cycle_mutex = threading.Lock()
        self._status_server = None
        self._history_paused = False
        telemetry = self._telemetry()
        if tracer is not None:
            # Both pipeline flavours accept a tracer; the sharded one
            # propagates the assignment to every shard pipeline.
            self.service.pipeline.tracer = tracer
        if telemetry is not None and self.locks.telemetry is None:
            self.locks.telemetry = telemetry
        if self.admission is not None and self.admission.telemetry is None:
            self.admission.telemetry = telemetry
        self.exporter: MetricsExporter | None = None
        if self.obs_dir is not None:
            if telemetry is None:
                raise ValidationError("obs_dir requires a pipeline with telemetry")
            self.exporter = MetricsExporter(
                telemetry,
                self.obs_dir,
                tracer=tracer,
                interval_s=export_interval_s,
                status_fn=self.status,
            )

    # --- wiring -----------------------------------------------------------------

    def _pipelines(self) -> list:
        shards = getattr(self.service.pipeline, "shards", None)
        return list(shards) if shards else [self.service.pipeline]

    def _telemetry(self):
        return getattr(self.service.pipeline, "telemetry", None)

    def _now(self) -> float:
        # Simulated deployments carry their own clock; honour it so the
        # daemon's cycles stamp the same timeline as the catalog's commits.
        try:
            return self.service._catalog().clock.now
        except ValidationError:
            return time.time()

    def _attach_catalog_locks(self) -> None:
        # Wire the compaction-audit hook onto the catalog so every replace
        # commit is stamped against the shared lock directory's state.
        try:
            catalog = self.service._catalog()
        except ValidationError:
            return
        catalog.attach_locks(self.locks)

    def _lock_gate(self, selected: list[Candidate]) -> list[Candidate]:
        admitted = []
        for candidate in selected:
            if self.locks.acquire(candidate.key):
                admitted.append(candidate)
            else:
                telemetry = self._telemetry()
                if telemetry is not None:
                    telemetry.increment("autocomp.daemon.lock_contended")
        return admitted

    def _install_gates(self) -> None:
        gates = []
        if self.admission is not None:
            gates.append(self.admission.admit)
        gates.append(self._lock_gate)
        for pipeline in self._pipelines():
            for gate in gates:
                if gate not in pipeline.act_gates:
                    pipeline.act_gates.append(gate)

    def _uninstall_gates(self) -> None:
        mine = {self._lock_gate}
        if self.admission is not None:
            mine.add(self.admission.admit)
        for pipeline in self._pipelines():
            pipeline.act_gates = [g for g in pipeline.act_gates if g not in mine]

    # --- lifecycle --------------------------------------------------------------

    def start(self) -> "AutoCompDaemon":
        """Recover, arm the gates, and start the scheduler thread.

        Startup order matters: stale locks are reclaimed *before* the
        first cycle can contend on them, spilled history is restored
        before any new cycle appends to the ring, and the heartbeat runs
        before any lock is acquired so none of ours ever looks stale.
        """
        if self._started:
            return self
        self._started = True
        self._attach_catalog_locks()
        self.reclaimed_on_start = self.locks.recover_stale()
        if self._history_paused:
            # stop() paused the history ring; resume it before new events.
            self.service.enable_history()
            self._history_paused = False
        if self.spill_path is not None and os.path.exists(self.spill_path):
            self.service.restore_history(self.spill_path)
        if self.promoter is not None:
            # Before the first cycle: attach wires the policy-store seam
            # (and history taps) the cycle will resolve the policy through.
            self.promoter.attach(self.service)
        self._install_gates()
        self.locks.start_heartbeat()
        if self.exporter is not None:
            self.exporter.start()
        self._stop.clear()
        thread = threading.Thread(target=self._loop, name="autocomp-daemon", daemon=True)
        self._thread = thread
        thread.start()
        if self.promoter is not None:
            promoter_thread = threading.Thread(
                target=self._promoter_loop, name="autocomp-promoter", daemon=True
            )
            self._promoter_thread = promoter_thread
            promoter_thread.start()
        return self

    def _next_delay(self, schedule, interval_s: float) -> float:
        """Seconds until the next firing under the given cadence."""
        if schedule is None:
            return interval_s
        now = time.time()
        return max(schedule.next_after(now) - now, 0.0)

    def _loop(self) -> None:
        # Fixed interval: wait() starts after run_once returns —
        # completion-anchored cadence, matching the service's simulator
        # attachment semantics.  Cron: the delay is recomputed after each
        # cycle, so an overrunning cycle skips to the next calendar
        # boundary instead of stacking overdue firings.
        while not self._stop.wait(self._next_delay(self.schedule, self.interval_s)):
            self.run_once()

    def _promoter_loop(self) -> None:
        while not self._stop.wait(self.promoter_interval_s):
            self.run_promoter_once()

    def run_promoter_once(self) -> dict | None:
        """One promoter tick now (also the promoter-thread body).

        A raising step is counted and swallowed, like a raising cycle —
        the daemon must outlive a bad shadow evaluation.  Returns the
        promoter's decision dict, or None (no promoter / step raised).
        """
        if self.promoter is None:
            return None
        self.promoter.attach(self.service)  # idempotent for the same service
        try:
            decision = self.promoter.step(now=self._now())
        except Exception:
            self.promoter_errors += 1
            self.promoter.step_errors += 1
            telemetry = self._telemetry()
            if telemetry is not None:
                telemetry.increment("autocomp.promoter.step_errors")
            return None
        self.promoter_steps += 1
        return decision

    def run_once(self) -> object | None:
        """Run one daemon cycle now (also the scheduler-thread body).

        Admission counters reset, the lock context becomes this cycle's
        trigger id, the service cycle runs behind the act gates, and —
        win or lose — every lock this instance took is released before
        returning.  A raising cycle is counted and swallowed: the daemon
        must outlive one bad cycle.
        """
        if not self._cycle_mutex.acquire(blocking=False):
            return None  # a manual run_once raced the scheduler tick
        try:
            # Both idempotent, so manual run_once works without start().
            self._attach_catalog_locks()
            self._install_gates()
            cycle_id = f"{self.locks.owner}/cycle:{self.cycles_run}"
            self.locks.context = cycle_id
            if self.admission is not None:
                self.admission.begin_cycle()
            try:
                report = self.service.run_cycle(now=self._now())
            except Exception:
                self.cycle_errors += 1
                telemetry = self._telemetry()
                if telemetry is not None:
                    telemetry.increment("autocomp.daemon.cycle_errors")
                return None
            finally:
                self.locks.release_all()
                self.locks.context = None
            self.cycles_run += 1
            return report
        finally:
            self._cycle_mutex.release()

    # --- observability ----------------------------------------------------------

    def status(self) -> dict:
        """One JSON-safe snapshot of what the daemon is doing right now.

        Covers scheduling (running, interval, cycles run/errored, whether
        a cycle is in flight), coordination (owner id, currently held
        lock keys, overlap skips, locks reclaimed at startup), and the
        latency story (summary of every ``autocomp.hist.*`` histogram:
        count/sum/min/max/p50/p95/p99).
        """
        telemetry = self._telemetry()
        summaries = getattr(telemetry, "histogram_summaries", None)
        histograms = summaries("autocomp.hist.") if summaries is not None else {}
        status = {
            "owner": self.locks.owner,
            "running": self._started,
            "interval_s": self.interval_s,
            "schedule": str(self.schedule) if self.schedule is not None else None,
            "cycles_run": self.cycles_run,
            "cycle_errors": self.cycle_errors,
            "cycle_in_flight": self._cycle_mutex.locked(),
            "overlap_skips": getattr(self.service, "overlap_skips", 0),
            "held_locks": self.locks.held_keys(),
            "reclaimed_on_start": list(self.reclaimed_on_start),
            "histograms": histograms,
        }
        if self.promoter is not None:
            status["promoter"] = {
                **self.promoter.status(),
                "steps_run": self.promoter_steps,
                "step_errors": self.promoter_errors,
                "interval_s": self.promoter_interval_s,
            }
        return status

    def serve_status(self, host: str = "127.0.0.1", port: int = 0):
        """Start (and return) an HTTP server for ``/status`` + ``/metrics``.

        Idempotent while running; :meth:`stop` shuts the server down with
        the daemon.  Use ``port=0`` to bind an ephemeral port — the bound
        address is ``server.address`` on the returned
        :class:`~repro.obs.http.StatusServer`.
        """
        if self._status_server is not None:
            return self._status_server
        from repro.obs.http import StatusServer

        telemetry = self._telemetry()
        metrics_fn = None
        if telemetry is not None:
            metrics_fn = lambda: render_prometheus(telemetry)  # noqa: E731
        server = StatusServer(self.status, metrics_fn=metrics_fn, host=host, port=port)
        server.start()
        self._status_server = server
        return server

    def stop(self) -> None:
        """Graceful shutdown: stop scheduling, drain, spill, detach, release.

        In-flight shard work gets up to :data:`DRAIN_TIMEOUT_S` to finish
        before worker children are joined and, if necessary, terminated.
        Then the history ring is spilled (when ``spill_path`` is set), the
        act gates are removed, and the lock manager is closed: the
        heartbeat stops, every held lock is released and the holder files
        are removed.

        Stop also detaches everything the running daemon hung on the
        service and its catalog: the promoter (its ``table_commit`` tap and
        cycle hook, :meth:`~repro.core.promoter.PolicyPromoter.detach`) and
        the service's history ring, which stops recording (it stays
        readable).  With the act gates gone too, nothing reachable from the
        catalog points back at the daemon, so a stopped daemon is freed by
        reference counting, without a garbage-collector pass.
        :meth:`start` re-attaches the promoter and resumes the ring.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s + DRAIN_TIMEOUT_S)
            self._thread = None
        if self._promoter_thread is not None:
            # The wait() wakes on the stop event; only an in-flight shadow
            # evaluation keeps the thread alive, bounded by the drain.
            self._promoter_thread.join(timeout=DRAIN_TIMEOUT_S)
            self._promoter_thread = None
        close = getattr(self.service.pipeline, "close", None)
        if close is not None:
            close(timeout=DRAIN_TIMEOUT_S)
        if self.spill_path is not None:
            self.service.spill_history(self.spill_path)
        if self.promoter is not None and self.promoter.service is self.service:
            self.promoter.detach()
        self._history_paused = self.service.disable_history() or self._history_paused
        self._uninstall_gates()
        self.locks.close()  # heartbeat, every held lock, the holder files
        self._started = False
        if self._status_server is not None:
            self._status_server.stop()
            self._status_server = None
        if self.exporter is not None:
            # Last: the final export then reflects the fully-drained state.
            self.exporter.stop()

    def __enter__(self) -> "AutoCompDaemon":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # --- backfill ---------------------------------------------------------------

    def _connector_and_backend(self):
        pipeline = self._pipelines()[0]
        return pipeline.connector, pipeline.backend

    def _compact_one(self, candidate_key) -> ExecutionResult:
        """Compact one unit immediately (the optimize-after-write sequence)."""
        connector, backend = self._connector_and_backend()
        stats = connector.collect_statistics(candidate_key)
        candidate = Candidate(key=candidate_key, statistics=stats)
        pipeline = self._pipelines()[0]
        pipeline.traits.annotate_all([candidate])
        task = CompactionTask.from_candidate(candidate)
        job = backend.prepare(task)
        now = self._now()
        if job is None:
            return ExecutionResult.skipped_result(task, now)
        job.start()
        result = job.finish()
        connector.invalidate(candidate_key)
        return result

    def backfill(
        self,
        keys,
        state_dir: str | os.PathLike,
        chunk_size: int = 1,
        unit_hook=None,
    ) -> dict[str, int]:
        """Compact every key once, durably, resumably.

        Registers each key as a unit in a :class:`ResumableStateMachine`
        under ``state_dir``, demotes units a previous (killed) run left
        mid-flight, then claims and works chunks until the state machine
        is drained: per unit, take the per-table lock (contended units go
        back to ``INIT`` for whoever holds them to finish or for a later
        pass), ``RUNNING``, compact, ``COMPLETE``, release.  Keys whose
        unit is already ``COMPLETE`` are never re-compacted — the
        restart-after-``kill -9`` guarantee.

        Args:
            keys: candidate keys to compact (``str(key)`` is the unit id).
            state_dir: durable home of the unit state files.
            chunk_size: units claimed per :meth:`~ResumableStateMachine.get_next_chunk`.
            unit_hook: optional callable invoked with each unit name while
                its lock is held and its state is ``RUNNING`` (test
                instrumentation — e.g. journaling or widening a kill
                window).

        Returns:
            The state machine's final :meth:`~ResumableStateMachine.counts`.
        """
        by_unit = {str(key): key for key in keys}
        machine = ResumableStateMachine(state_dir)
        machine.register(by_unit)
        machine.recover()
        self._attach_catalog_locks()
        self.locks.recover_stale()
        stalled: set[str] = set()
        while True:
            chunk = machine.get_next_chunk(chunk_size, exclude=stalled)
            if not chunk:
                break
            for unit in chunk:
                key = by_unit.get(unit)
                if key is None:
                    # Registered by an earlier run with a key this call
                    # does not carry; leave it for the run that does.
                    machine.release(unit)
                    stalled.add(unit)
                    continue
                # The attempt number keys the lock context: a crash-retry
                # is a *new* trigger, so its (legitimate, idempotent)
                # re-compaction never reads as a double-compaction in the
                # audit — only two commits for the same attempt would.
                attempt = machine.attempts_of(unit) + 1
                if not self.locks.acquire(key, context=f"backfill:{unit}#try{attempt}"):
                    # Held elsewhere (e.g. a scheduled cycle): back to
                    # INIT for a later pass or the current holder.
                    machine.release(unit)
                    stalled.add(unit)
                    continue
                try:
                    machine.mark_running(unit)
                    self._compact_one(key)
                    if unit_hook is not None:
                        unit_hook(unit)
                    machine.mark_complete(unit)
                finally:
                    self.locks.release(key)
        return machine.counts()
