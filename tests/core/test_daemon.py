"""Tests for the AutoComp daemon, the resumable state machine, and locks-in-anger."""

from __future__ import annotations

import gc
import json
import os
import threading
import time
import weakref

import pytest

from repro.core import (
    AdmissionController,
    AutoCompDaemon,
    AutoCompService,
    ResumableStateMachine,
    openhouse_pipeline,
    verify_audit,
)
from repro.core.candidates import CandidateKey, CandidateScope
from repro.core.daemon import UNIT_STATES
from repro.core.locks import LockManager
from repro.engine import Cluster
from repro.errors import ValidationError
from repro.units import HOUR, MiB

from tests.conftest import fragment_table


def build_catalog(catalog, simple_schema, monthly_spec, databases=("db",), tables=3):
    for db in databases:
        catalog.create_database(db, quota_objects=100_000)
        for i in range(tables):
            table = catalog.create_table(f"{db}.t{i}", simple_schema, spec=monthly_spec)
            fragment_table(table, partitions=[(0,)], files_per_partition=8)
    catalog.clock.advance_by(2 * HOUR)
    return catalog


def build_daemon(catalog, lock_dir, owner="d", **daemon_kwargs):
    pipeline = openhouse_pipeline(catalog, Cluster("maint", executors=3))
    service = AutoCompService(pipeline, interval_s=HOUR)
    locks = LockManager(lock_dir, owner=owner, stale_after_s=30)
    return AutoCompDaemon(service, locks, **daemon_kwargs)


@pytest.fixture
def fleet(catalog, simple_schema, monthly_spec):
    return build_catalog(catalog, simple_schema, monthly_spec)


class TestResumableStateMachine:
    def test_register_claim_complete(self, tmp_path):
        machine = ResumableStateMachine(tmp_path / "state")
        assert machine.register(["u1", "u2", "u3"]) == 3
        assert machine.register(["u1"]) == 0  # idempotent
        chunk = machine.get_next_chunk(2)
        assert chunk == ["u1", "u2"]
        assert machine.state_of("u1") == "LOCKED"
        machine.mark_running("u1")
        machine.mark_complete("u1")
        assert machine.state_of("u1") == "COMPLETE"
        assert machine.counts() == {
            "INIT": 1,
            "LOCKED": 1,
            "RUNNING": 0,
            "COMPLETE": 1,
        }

    def test_state_survives_restart(self, tmp_path):
        first = ResumableStateMachine(tmp_path / "state")
        first.register(["u1", "u2"])
        first.get_next_chunk()
        first.mark_running("u1")
        first.mark_complete("u1")
        # Fresh instance over the same directory (post-kill restart).
        second = ResumableStateMachine(tmp_path / "state")
        assert second.state_of("u1") == "COMPLETE"
        assert second.state_of("u2") == "INIT"

    def test_recover_demotes_midflight_units(self, tmp_path):
        first = ResumableStateMachine(tmp_path / "state")
        first.register(["u1", "u2", "u3"])
        first.get_next_chunk(2)  # u1, u2 -> LOCKED
        first.mark_running("u1")  # u1 -> RUNNING
        second = ResumableStateMachine(tmp_path / "state")
        assert sorted(second.recover()) == ["u1", "u2"]
        assert second.state_of("u1") == "INIT"
        assert second.state_of("u3") == "INIT"
        # COMPLETE units are never demoted.
        second.get_next_chunk()
        second.mark_running("u1")
        second.mark_complete("u1")
        assert second.recover() == []
        assert second.state_of("u1") == "COMPLETE"

    def test_torn_state_file_reregisters_as_init(self, tmp_path):
        state_dir = tmp_path / "state"
        machine = ResumableStateMachine(state_dir)
        machine.register(["u1"])
        machine.get_next_chunk()
        path = machine._path_for("u1")
        with open(path, "w") as stream:
            stream.write('{"unit": "u1", "sta')  # kill -9 mid-write
        fresh = ResumableStateMachine(state_dir)
        assert fresh.state_of("u1") is None
        assert fresh.register(["u1"]) == 1
        assert fresh.state_of("u1") == "INIT"

    def test_attempts_count_reruns(self, tmp_path):
        machine = ResumableStateMachine(tmp_path / "state")
        machine.register(["u1"])
        machine.get_next_chunk()
        machine.mark_running("u1")
        machine.release("u1")
        machine.get_next_chunk()
        machine.mark_running("u1")
        with open(machine._path_for("u1")) as handle:
            record = json.load(handle)
        assert record["attempts"] == 2

    def test_chunk_validation(self, tmp_path):
        machine = ResumableStateMachine(tmp_path / "state")
        with pytest.raises(ValidationError):
            machine.get_next_chunk(0)

    def test_states_constant(self):
        assert UNIT_STATES == ("INIT", "LOCKED", "RUNNING", "COMPLETE")


class TestDaemonCycle:
    def test_run_once_compacts_and_releases(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks")
        report = daemon.run_once()
        assert report.successes == 3
        assert daemon.locks.held_keys() == []  # every lock released
        assert daemon.cycles_run == 1
        summary = verify_audit(tmp_path / "locks")
        assert summary.ok, summary.violations
        assert summary.compact_commits == 3
        # Every commit was attributed to this daemon's cycle trigger.
        assert summary.acquires == 3

    def test_admission_gate_caps_and_counts(self, fleet, tmp_path):
        admission = AdmissionController(max_per_database=1)
        daemon = build_daemon(fleet, tmp_path / "locks", admission=admission)
        report = daemon.run_once()
        assert report.successes == 1
        assert report.gated == 2
        assert admission.deferred_total == 2

    def test_gates_install_once_and_uninstall(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks", interval_s=60)
        pipeline = daemon.service.pipeline
        daemon.start()
        daemon._install_gates()  # second install must not duplicate
        assert len(pipeline.act_gates) == 1
        daemon.stop()
        assert pipeline.act_gates == []

    def test_scheduler_thread_ticks(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks", interval_s=0.05)
        daemon.start()
        deadline = time.monotonic() + 5.0
        while daemon.cycles_run < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        daemon.stop()
        assert daemon.cycles_run >= 2
        assert verify_audit(tmp_path / "locks").ok

    def test_cycle_error_is_counted_not_fatal(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks")

        def boom(now=0.0, simulator=None):
            raise RuntimeError("injected")

        daemon.service.run_cycle = boom
        assert daemon.run_once() is None
        assert daemon.cycle_errors == 1
        assert daemon.locks.held_keys() == []

    def test_validation(self, fleet, tmp_path):
        with pytest.raises(ValidationError):
            build_daemon(fleet, tmp_path / "locks", interval_s=0)

    def test_start_is_idempotent_and_context_manager(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks", interval_s=60)
        with daemon as entered:
            assert entered is daemon
            assert daemon.start() is daemon  # second start: no-op
        assert daemon.locks.held_keys() == []

    def test_history_spills_on_stop_and_restores_on_start(self, fleet, tmp_path):
        spill = tmp_path / "history.trace.jsonl"
        daemon = build_daemon(fleet, tmp_path / "locks", interval_s=60, spill_path=spill)
        daemon.service.enable_history(segment_cycles=1, seed=3)
        daemon.start()
        daemon.run_once()
        fleet.clock.advance_by(HOUR)
        daemon.run_once()
        events_before = daemon.service._history.trace().events
        daemon.stop()
        assert spill.exists()
        # A fresh daemon (fresh service over the same catalog) restores it.
        revived = build_daemon(fleet, tmp_path / "locks", owner="d2", interval_s=60,
                               spill_path=spill)
        revived.service.enable_history(segment_cycles=1, seed=3)
        revived.start()
        try:
            assert revived.service._history.trace().events == events_before
        finally:
            revived.stop()


class FakeSchedule:
    """Duck-typed cadence: fires every `period` seconds of wall time."""

    def __init__(self, period: float):
        self.period = period
        self.calls = 0

    def next_after(self, ts: float) -> float:
        self.calls += 1
        return ts + self.period

    def __str__(self) -> str:
        return f"fake/{self.period}"


class TestCalendarCadence:
    def test_cron_string_is_parsed_and_surfaced_in_status(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks", schedule="30 3 * * 1-5")
        assert str(daemon.schedule) == "30 3 * * 1-5"
        assert daemon.status()["schedule"] == "30 3 * * 1-5"

    def test_bad_cron_string_fails_at_construction(self, fleet, tmp_path):
        with pytest.raises(ValidationError):
            build_daemon(fleet, tmp_path / "locks", schedule="61 * * * *")

    def test_interval_cadence_reports_no_schedule(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks")
        assert daemon.schedule is None
        assert daemon.status()["schedule"] is None

    def test_scheduler_thread_ticks_on_calendar_boundaries(self, fleet, tmp_path):
        schedule = FakeSchedule(period=0.05)
        daemon = build_daemon(fleet, tmp_path / "locks", interval_s=60,
                              schedule=schedule)
        daemon.start()
        deadline = time.monotonic() + 5.0
        while daemon.cycles_run < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        daemon.stop()
        assert daemon.cycles_run >= 2
        # The delay was recomputed from the schedule, not interval_s.
        assert schedule.calls >= daemon.cycles_run

    def test_overdue_boundary_fires_immediately(self, fleet, tmp_path):
        class Overdue:
            def next_after(self, ts):
                return ts - 100.0  # boundary already passed

        daemon = build_daemon(fleet, tmp_path / "locks", schedule=Overdue())
        assert daemon._next_delay(daemon.schedule, daemon.interval_s) == 0.0


class TestDaemonPromoter:
    def build_promoter_daemon(self, fleet, tmp_path, **daemon_kwargs):
        from repro.core import PolicyPromoter, PolicyStore
        from repro.replay import PolicyVariant

        store = PolicyStore(tmp_path / "policy")
        store.initialize(
            PolicyVariant(name="dud", k=10, min_small_files=500),
            pool=[
                PolicyVariant(name="dud", k=10, min_small_files=500),
                PolicyVariant(name="k10", k=10),
                PolicyVariant(name="k2", k=2),
            ],
        )
        promoter = PolicyPromoter(store, guard_cycles=1, min_history_cycles=1)
        daemon = build_daemon(
            fleet, tmp_path / "locks", promoter=promoter, **daemon_kwargs
        )
        return daemon, promoter, store

    def test_start_attaches_and_step_promotes(self, fleet, tmp_path):
        daemon, promoter, store = self.build_promoter_daemon(
            fleet, tmp_path, interval_s=60
        )
        daemon.start()
        try:
            assert promoter.service is daemon.service
            daemon.run_once()
            fleet.clock.advance_by(HOUR)
            daemon.run_once()
            decision = daemon.run_promoter_once()
            assert decision["action"] == "promote"
            assert daemon.promoter_steps == 1
            status = daemon.status()["promoter"]
            assert status["store"]["state"] == "GUARD"
            assert status["steps_run"] == 1
            assert status["interval_s"] == 60
        finally:
            daemon.stop()

    def test_promoter_thread_ticks_on_its_own_cadence(self, fleet, tmp_path):
        daemon, promoter, _ = self.build_promoter_daemon(
            fleet, tmp_path, interval_s=60, promoter_interval_s=0.05
        )
        daemon.start()
        try:
            deadline = time.monotonic() + 5.0
            while daemon.promoter_steps < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            daemon.stop()
        # Without recorded cycles every tick holds — but the cadence ran.
        assert daemon.promoter_steps >= 2
        assert promoter.holds >= 2

    def test_promoter_step_error_is_counted_not_fatal(self, fleet, tmp_path):
        daemon, promoter, _ = self.build_promoter_daemon(fleet, tmp_path)
        daemon.service.enable_history()

        def boom(now=None):
            raise RuntimeError("injected")

        promoter.attach(daemon.service)
        promoter.step = boom
        assert daemon.run_promoter_once() is None
        assert daemon.promoter_errors == 1
        assert promoter.step_errors == 1
        telemetry = daemon.service.pipeline.telemetry
        assert telemetry.counter("autocomp.promoter.step_errors") == 1

    def test_no_promoter_is_a_noop(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks")
        assert daemon.run_promoter_once() is None
        assert "promoter" not in daemon.status()

    def test_promoter_interval_validation(self, fleet, tmp_path):
        with pytest.raises(ValidationError):
            build_daemon(fleet, tmp_path / "locks", promoter_interval_s=0)


class TestConcurrentDaemons:
    def test_two_instances_never_double_compact(
        self, catalog, simple_schema, monthly_spec, tmp_path
    ):
        """Two daemons, one catalog, one lock directory: the audit stays clean."""
        fleet = build_catalog(
            catalog, simple_schema, monthly_spec, databases=("db0", "db1"), tables=3
        )
        lock_dir = tmp_path / "locks"
        first = build_daemon(fleet, lock_dir, owner="alpha", interval_s=0.02)
        second = build_daemon(fleet, lock_dir, owner="beta", interval_s=0.02)
        tables = [t for db in ("db0", "db1") for t in fleet.database(db).tables.values()]
        stop_ingest = threading.Event()

        def ingest():
            # Keep re-fragmenting so cycles always find work (and both
            # daemons keep wanting the same tables).
            while not stop_ingest.wait(0.01):
                for table in tables:
                    fragment_table(table, partitions=[(0,)], files_per_partition=3,
                                   file_size=4 * MiB)

        ingester = threading.Thread(target=ingest, daemon=True)
        first.start()
        second.start()
        ingester.start()
        deadline = time.monotonic() + 10.0
        while (
            first.cycles_run + second.cycles_run < 8 and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        stop_ingest.set()
        ingester.join(timeout=5.0)
        first.stop()
        second.stop()
        summary = verify_audit(lock_dir)
        assert summary.ok, summary.violations
        assert summary.compact_commits > 0
        assert first.cycles_run + second.cycles_run >= 8


class TestBackfill:
    def keys(self, fleet):
        return [
            CandidateKey("db", f"t{i}", CandidateScope.TABLE) for i in range(3)
        ]

    def test_backfill_compacts_everything_once(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks")
        counts = daemon.backfill(self.keys(fleet), tmp_path / "state")
        assert counts["COMPLETE"] == 3 and counts["INIT"] == 0
        summary = verify_audit(tmp_path / "locks")
        assert summary.ok, summary.violations
        assert summary.compact_commits == 3

    def test_rerun_skips_complete_units(self, fleet, tmp_path):
        daemon = build_daemon(fleet, tmp_path / "locks")
        daemon.backfill(self.keys(fleet), tmp_path / "state")
        commits = verify_audit(tmp_path / "locks").compact_commits
        counts = daemon.backfill(self.keys(fleet), tmp_path / "state")
        assert counts["COMPLETE"] == 3
        assert verify_audit(tmp_path / "locks").compact_commits == commits

    def test_contended_unit_is_left_for_the_holder(self, fleet, tmp_path):
        blocker = LockManager(tmp_path / "locks", owner="other")
        key = CandidateKey("db", "t0", CandidateScope.TABLE)
        assert blocker.acquire(key)
        daemon = build_daemon(fleet, tmp_path / "locks")
        counts = daemon.backfill(self.keys(fleet), tmp_path / "state")
        assert counts["COMPLETE"] == 2
        assert counts["INIT"] == 1  # back for a later pass, no spin
        blocker.release(key)
        counts = daemon.backfill(self.keys(fleet), tmp_path / "state")
        assert counts["COMPLETE"] == 3

    def test_resume_after_recover(self, fleet, tmp_path):
        state_dir = tmp_path / "state"
        machine = ResumableStateMachine(state_dir)
        machine.register([str(k) for k in self.keys(fleet)])
        machine.get_next_chunk()  # db.t0 claimed by a "killed" run
        daemon = build_daemon(fleet, tmp_path / "locks")
        counts = daemon.backfill(self.keys(fleet), state_dir)
        assert counts == {"INIT": 0, "LOCKED": 0, "RUNNING": 0, "COMPLETE": 3}

    def test_unknown_unit_does_not_spin(self, fleet, tmp_path):
        state_dir = tmp_path / "state"
        machine = ResumableStateMachine(state_dir)
        machine.register(["ghost.unit"])
        daemon = build_daemon(fleet, tmp_path / "locks")
        counts = daemon.backfill(self.keys(fleet), state_dir)
        assert counts["COMPLETE"] == 3
        assert counts["INIT"] == 1  # the ghost stays INIT for its real owner


class TestLockGateUnderContention:
    def test_selected_but_locked_candidates_are_gated(self, fleet, tmp_path):
        blocker = LockManager(tmp_path / "locks", owner="other")
        assert blocker.acquire(CandidateKey("db", "t0", CandidateScope.TABLE))
        daemon = build_daemon(fleet, tmp_path / "locks")
        report = daemon.run_once()
        assert report.successes == 2  # t1, t2 — t0 was lock-gated
        assert report.gated == 1
        telemetry = daemon.service.pipeline.telemetry
        assert telemetry.counter("autocomp.daemon.lock_contended") == 1


def build_observed_daemon(catalog, tmp_path, **daemon_kwargs):
    """A daemon with every operator surface: tracer, exporter, admission, promoter."""
    from repro.core import PolicyPromoter, PolicyStore
    from repro.obs.tracing import Tracer
    from repro.replay import PolicyVariant

    store = PolicyStore(tmp_path / "policy")
    store.initialize(
        PolicyVariant(name="k10", k=10),
        pool=[PolicyVariant(name="k10", k=10), PolicyVariant(name="k2", k=2)],
    )
    promoter = PolicyPromoter(store, guard_cycles=1, min_history_cycles=1)
    daemon = build_daemon(
        catalog,
        tmp_path / "locks",
        admission=AdmissionController(max_per_database=2),
        promoter=promoter,
        tracer=Tracer(),
        obs_dir=tmp_path / "obs",
        interval_s=3600,
        promoter_interval_s=3600,
        export_interval_s=3600,
    )
    daemon.service.enable_history(segment_cycles=2, max_segments=2)
    return daemon, promoter


def ingest(catalog):
    for table in catalog.all_tables():
        fragment_table(table, partitions=[(0,)], files_per_partition=4)
    catalog.clock.advance_by(HOUR)


class TestTeardown:
    def test_stopped_daemon_is_freed_without_the_garbage_collector(
        self, tmp_path, simple_schema, monthly_spec
    ):
        from repro.catalog import Catalog

        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            catalog = build_catalog(Catalog(), simple_schema, monthly_spec, databases=("a", "b"))
            daemon, promoter = build_observed_daemon(catalog, tmp_path)
            daemon.start()
            for _ in range(3):
                ingest(catalog)
                daemon.run_once()
            daemon.exporter.export_once()
            daemon.run_promoter_once()
            assert promoter.shadow_evals == 1
            daemon.stop()
            refs = {
                "catalog": weakref.ref(catalog),
                "daemon": weakref.ref(daemon),
                "service": weakref.ref(daemon.service),
                "promoter": weakref.ref(promoter),
                "exporter": weakref.ref(daemon.exporter),
            }
            del catalog, daemon, promoter
            assert [name for name, ref in refs.items() if ref() is not None] == []
        finally:
            if was_enabled:
                gc.enable()


class TestRestart:
    def test_restarted_daemon_feeds_the_ring_and_the_promoter(
        self, fleet, tmp_path
    ):
        daemon, promoter = build_observed_daemon(fleet, tmp_path)
        service = daemon.service
        ring = service._history
        daemon.start()
        ingest(fleet)
        daemon.run_once()
        daemon.stop()
        assert promoter.service is None
        assert promoter.observe_cycle not in service.cycle_hooks
        assert ring.closed
        recorded, observed = ring.events_recorded, len(promoter._live)

        daemon.start()
        try:
            assert promoter.service is service
            assert not ring.closed
            ingest(fleet)
            daemon.run_once()
            assert ring.events_recorded > recorded
            assert len(promoter._live) == observed + 1
            assert promoter.status()["attached"]
        finally:
            daemon.stop()

    def test_restart_keeps_history_only_while_the_catalog_is_unchanged(
        self, fleet, tmp_path
    ):
        daemon, _ = build_observed_daemon(fleet, tmp_path)
        ring = daemon.service._history
        daemon.start()
        ingest(fleet)
        daemon.run_once()
        daemon.stop()
        events = ring.trace().events
        daemon.start()
        daemon.stop()
        assert ring.trace().events == events  # nothing missed: history kept
        ingest(fleet)  # commits the closed ring never saw
        daemon.start()
        try:
            trace = ring.trace()
            assert [e["kind"] for e in trace.events] == ["checkpoint"]
            assert trace.events[0]["databases"] != events[0]["databases"]
        finally:
            daemon.stop()
