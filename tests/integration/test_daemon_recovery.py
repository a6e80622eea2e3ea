"""Crash-recovery integration: SIGKILL a backfilling daemon, restart, resume.

Drives :mod:`tests.integration.daemon_harness` as a real subprocess so the
kill is a genuine ``kill -9`` — no atexit handlers, no finally blocks, no
lock releases.  The durable artifacts under the shared work directory
(lock files + audit log, resumable-state files, the compaction journal)
are all that connects the two runs, exactly as for a production daemon
restarting on the same warehouse.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.daemon import ResumableStateMachine
from repro.core.locks import HOLDERS_DIR, LOCK_SUFFIX, verify_audit

HARNESS = os.path.join(os.path.dirname(__file__), "daemon_harness.py")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def launch(workdir, tables: int, slow: float = 0.0, mode: str = "backfill") -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    return subprocess.Popen(
        [
            sys.executable,
            HARNESS,
            "--workdir",
            os.fspath(workdir),
            "--mode",
            mode,
            "--tables",
            str(tables),
            "--slow",
            str(slow),
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def run_to_completion(workdir, tables: int, mode: str = "backfill") -> dict:
    proc = launch(workdir, tables=tables, mode=mode)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, f"harness failed:\n{stderr}"
    return json.loads(stdout.strip().splitlines()[-1])


def journal_lines(workdir) -> list[str]:
    path = os.path.join(os.fspath(workdir), "journal.log")
    try:
        with open(path, encoding="utf-8") as stream:
            return [line for line in stream.read().splitlines() if line]
    except FileNotFoundError:
        return []


def wait_for_journal(proc, workdir, n: int, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(journal_lines(workdir)) >= n:
            return
        if proc.poll() is not None:
            pytest.fail(f"harness exited early:\n{proc.stderr.read()}")
        time.sleep(0.02)
    pytest.fail(f"journal never reached {n} lines")


def wait_for_journal_line(proc, workdir, needle: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(needle in line for line in journal_lines(workdir)):
            return
        if proc.poll() is not None:
            pytest.fail(f"harness exited early:\n{proc.stderr.read()}")
        time.sleep(0.02)
    pytest.fail(f"journal never contained {needle!r}")


def lock_files(workdir) -> list[str]:
    lock_dir = os.path.join(os.fspath(workdir), "locks")
    try:
        return sorted(n for n in os.listdir(lock_dir) if n.endswith(LOCK_SUFFIX))
    except FileNotFoundError:
        return []


class TestCleanBackfill:
    def test_single_run_drains_and_audits_clean(self, tmp_path):
        counts = run_to_completion(tmp_path, tables=6)
        assert counts["COMPLETE"] == 6
        assert counts["INIT"] == counts["LOCKED"] == counts["RUNNING"] == 0
        journal = journal_lines(tmp_path)
        assert len(journal) == 6 == len(set(journal))
        assert lock_files(tmp_path) == []  # every lock released
        summary = verify_audit(tmp_path / "locks")
        assert summary.ok, summary.violations
        assert summary.compact_commits == 6

    def test_rerun_after_success_recompacts_nothing(self, tmp_path):
        run_to_completion(tmp_path, tables=5)
        journal_before = journal_lines(tmp_path)
        counts = run_to_completion(tmp_path, tables=5)
        assert counts["COMPLETE"] == 5
        # The second run found every unit COMPLETE and touched none.
        assert journal_lines(tmp_path) == journal_before
        summary = verify_audit(tmp_path / "locks")
        assert summary.ok, summary.violations
        assert summary.compact_commits == 5


class TestKillDashNine:
    TABLES = 12

    def kill_mid_backfill(self, tmp_path) -> tuple[list[str], list[str], dict]:
        """Run 1 with a widened per-unit window; SIGKILL after >=3 units.

        Returns (pre-kill COMPLETE units, leftover lock files, pre-kill
        state counts).
        """
        proc = launch(tmp_path, tables=self.TABLES, slow=0.25)
        try:
            wait_for_journal(proc, tmp_path, n=3)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()
        machine = ResumableStateMachine(tmp_path / "state")
        counts = machine.counts()
        units = [f"db.t{i:03d}" for i in range(self.TABLES)]
        completed = [unit for unit in units if machine.state_of(unit) == "COMPLETE"]
        return completed, lock_files(tmp_path), counts

    def test_restart_resumes_without_recompacting_complete_units(self, tmp_path):
        completed_before, _, counts_before = self.kill_mid_backfill(tmp_path)
        # The kill landed mid-fleet: real progress, real remaining work.
        assert counts_before["COMPLETE"] >= 1
        assert counts_before["COMPLETE"] < self.TABLES

        counts = run_to_completion(tmp_path, tables=self.TABLES)
        assert counts["COMPLETE"] == self.TABLES
        assert counts["INIT"] == counts["LOCKED"] == counts["RUNNING"] == 0

        journal = journal_lines(tmp_path)
        # Units COMPLETE before the kill were journaled exactly once: the
        # restarted run skipped them.  (A unit killed mid-RUNNING may
        # legitimately appear twice — demoted to INIT and redone.)
        for unit in completed_before:
            assert journal.count(unit) == 1, f"{unit} re-compacted after restart"
        assert set(journal) == {f"db.t{i:03d}" for i in range(self.TABLES)}

    def test_stale_locks_reclaimed_and_audit_stays_clean(self, tmp_path):
        _, leftover_locks, _ = self.kill_mid_backfill(tmp_path)
        run_to_completion(tmp_path, tables=self.TABLES)
        assert lock_files(tmp_path) == []  # crash leftovers reclaimed
        summary = verify_audit(tmp_path / "locks")
        assert summary.ok, summary.violations
        assert summary.reclaims == len(leftover_locks)
        assert summary.double_compactions == {}
        assert summary.compact_commits >= self.TABLES

    def test_killed_daemons_holder_directory_is_swept(self, tmp_path):
        _, leftover_locks, _ = self.kill_mid_backfill(tmp_path)
        holders = tmp_path / "locks" / HOLDERS_DIR
        killed = os.listdir(holders)
        # The kill landed while a lock was held: its name links a holder
        # file in the killed daemon's holder directory.
        assert leftover_locks and killed
        run_to_completion(tmp_path, tables=self.TABLES)
        assert lock_files(tmp_path) == []  # the killed daemon's lock was reclaimed
        # The restart swept the dead daemon's directory; its own went at exit.
        assert os.listdir(holders) == []
        summary = verify_audit(tmp_path / "locks")
        assert summary.ok, summary.violations
        assert summary.reclaims == len(leftover_locks)


class TestKillMidPromotion:
    """SIGKILL lands between a promotion's audit intent and the policy flip."""

    def kill_mid_promotion(self, tmp_path) -> None:
        proc = launch(tmp_path, tables=6, slow=30.0, mode="promoter")
        try:
            wait_for_journal_line(proc, tmp_path, "promote_window:")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()

    def test_reopened_store_aborts_the_dangling_intent(self, tmp_path):
        from repro.core import PolicyStore, verify_promotions

        self.kill_mid_promotion(tmp_path)
        store = PolicyStore(tmp_path / "policy")
        # The flip never happened, so recovery aborts the intent: the
        # active policy is still the boot variant at version 1, STABLE.
        assert store.recovered_action.startswith("aborted promote")
        assert store.version == 1
        assert store.state == "STABLE"
        assert store.snapshot()["active"] == "dud"
        summary = verify_promotions(tmp_path / "policy")
        assert summary.violations == []
        assert summary.promotions == 0

    def test_restarted_daemon_promotes_after_the_crash(self, tmp_path):
        from repro.core import verify_promotions

        self.kill_mid_promotion(tmp_path)
        done = run_to_completion(tmp_path, tables=6, mode="promoter")
        # The fresh run recovered the dangling intent itself...
        assert done["recovered"].startswith("aborted promote")
        # ...then shadow-evaluated and promoted for real.
        assert done["decision"]["action"] == "promote"
        assert done["decision"]["over"] == "dud"
        assert done["snapshot"]["state"] == "STABLE"
        assert done["snapshot"]["active"] != "dud"
        assert done["violations"] == []
        assert done["promotions"] == 1 and done["guard_passes"] == 1
        # The full history — abort included — replays clean after the fact.
        assert verify_promotions(tmp_path / "policy").violations == []

    def test_clean_promoter_run_needs_no_recovery(self, tmp_path):
        done = run_to_completion(tmp_path, tables=6, mode="promoter")
        assert done["recovered"] is None
        assert done["decision"]["action"] == "promote"
        assert done["violations"] == []
        assert done["guard_passes"] == 1
