"""Tests for the per-table lock files, stale recovery, and the audit log."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.candidates import CandidateKey, CandidateScope
from repro.core.locks import (
    AUDIT_LOG,
    LockManager,
    default_owner,
    lock_slug,
    read_audit,
    verify_audit,
)
from repro.errors import ValidationError


@pytest.fixture
def lock_dir(tmp_path):
    return str(tmp_path / "locks")


class TestSlug:
    def test_distinct_keys_never_alias(self):
        # Sanitisation collapses both to the same prefix; the hash differs.
        assert lock_slug("db.t/x") != lock_slug("db.t:x")

    def test_filesystem_safe(self):
        slug = lock_slug("db.t[partition=2024/07]")
        assert "/" not in slug and "[" not in slug

    def test_candidate_key_slug_matches_str(self):
        key = CandidateKey("db", "t0", CandidateScope.TABLE)
        assert lock_slug(key) == lock_slug(str(key))


class TestAcquireRelease:
    def test_acquire_then_contend(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        b = LockManager(lock_dir, owner="b")
        assert a.acquire("db.t0")
        assert not b.acquire("db.t0")  # lock file already exists
        assert not a.acquire("db.t0")  # even the holder re-acquiring contends
        assert a.holds("db.t0") and not b.holds("db.t0")

    def test_release_frees_for_other_owner(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        b = LockManager(lock_dir, owner="b")
        assert a.acquire("db.t0")
        assert a.release("db.t0")
        assert b.acquire("db.t0")

    def test_release_unheld_is_false(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        assert not a.release("db.t0")

    def test_release_all(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        for i in range(3):
            assert a.acquire(f"db.t{i}")
        assert a.release_all() == 3
        assert a.held_keys() == []

    def test_candidate_key_lock_covers_qualified_table(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        key = CandidateKey("db", "t0", CandidateScope.TABLE)
        assert a.acquire(key, context="cycle:0")
        info = a.inspect_table("db.t0")
        assert info is not None
        assert info.owner == "a"
        assert info.context == "cycle:0"

    def test_validation(self, lock_dir):
        with pytest.raises(ValidationError):
            LockManager(lock_dir, stale_after_s=0)
        with pytest.raises(ValidationError):
            LockManager(lock_dir, heartbeat_interval_s=-1)

    def test_default_owners_are_distinct(self):
        assert default_owner() != default_owner()


class TestInspectTable:
    """The table-lock fast path must return exactly what the directory scan returns."""

    @pytest.mark.parametrize("qualified_len", [5, 77, 78, 79, 80, 81, 120])
    def test_table_and_partition_locks_match_the_scan(self, lock_dir, qualified_len):
        table = "t" + "x" * (qualified_len - 4)
        qualified = f"db.{table}"
        assert len(qualified) == qualified_len
        holders = [LockManager(lock_dir, owner=f"o{i}") for i in range(3)]
        keys = [
            CandidateKey("db", table, CandidateScope.PARTITION, partition=(0,)),
            CandidateKey("db", table, CandidateScope.TABLE),
            CandidateKey("db", table, CandidateScope.PARTITION, partition=(1,)),
        ]
        for holder, key in zip(holders, keys):
            assert holder.acquire(key)
        reader = LockManager(lock_dir, owner="reader")
        assert reader.inspect_table(qualified) == reader._scan_table(qualified)
        # Without the table-scope lock the scan still finds a partition lock.
        holders[1].release(keys[1])
        assert reader.inspect_table(qualified) == reader._scan_table(qualified)
        assert reader.inspect_table(qualified).owner in ("o0", "o2")
        for holder in holders:
            holder.release_all()
        assert reader.inspect_table(qualified) is None

    def test_reads_one_file_when_the_table_lock_exists(self, lock_dir, monkeypatch):
        holder = LockManager(lock_dir, owner="holder")
        for t in range(20):
            holder.acquire(CandidateKey("db", f"t{t:02d}", CandidateScope.TABLE))
        holder.acquire(CandidateKey("db", "t07", CandidateScope.PARTITION, partition=(0,)))
        reader = LockManager(lock_dir, owner="reader")
        reads = []
        real_read = reader._read_lock

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(reader, "_read_lock", counting_read)
        info = reader.inspect_table("db.t07")
        assert info.owner == "holder" and info.key == "db.t07"
        assert len(reads) == 1


class TestStaleRecovery:
    def test_dead_pid_is_reclaimed(self, lock_dir):
        a = LockManager(lock_dir, owner="crashed")
        assert a.acquire("db.t0")
        # Forge a dead owner: rewrite the lock file with an impossible pid,
        # then forget it locally (simulating the crashed process).
        path = a._path_for("db.t0")
        payload = json.loads(open(path).read())
        payload["pid"] = 2**22 + 12345  # beyond default pid_max
        with open(path, "w") as stream:
            json.dump(payload, stream)
        a._held.clear()

        b = LockManager(lock_dir, owner="restarted")
        assert b.recover_stale() == ["db.t0"]
        assert b.acquire("db.t0")

    def test_live_fresh_lock_is_not_reclaimed(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        assert a.acquire("db.t0")
        b = LockManager(lock_dir, owner="b")
        assert b.recover_stale() == []  # same live pid, fresh mtime

    def test_stale_heartbeat_is_reclaimed_even_with_live_pid(self, lock_dir):
        now = [1000.0]
        a = LockManager(lock_dir, owner="hung", stale_after_s=30, clock=lambda: now[0])
        assert a.acquire("db.t0")
        os.utime(a._path_for("db.t0"), (0, 0))  # heartbeat mtime long ago
        a._held.clear()  # hung instance won't defend it
        b = LockManager(lock_dir, owner="b", stale_after_s=30, clock=lambda: now[0])
        assert b.recover_stale() == ["db.t0"]

    def test_never_reclaims_own_held_lock(self, lock_dir):
        now = [1000.0]
        a = LockManager(lock_dir, owner="a", stale_after_s=30, clock=lambda: now[0])
        assert a.acquire("db.t0")
        os.utime(a._path_for("db.t0"), (0, 0))
        assert a.recover_stale() == []  # own locks are exempt
        assert a.holds("db.t0")

    def test_heartbeat_defends_against_mtime_staleness(self, lock_dir):
        now = [1000.0]
        a = LockManager(lock_dir, owner="a", stale_after_s=30, clock=lambda: now[0])
        assert a.acquire("db.t0")
        os.utime(a._path_for("db.t0"), (0, 0))
        assert a.heartbeat() == 1  # refreshes mtime
        b = LockManager(lock_dir, owner="b", stale_after_s=30, clock=lambda: now[0])
        # pid alive + fresh mtime -> not stale (ignore own-lock exemption
        # by checking from the sibling's perspective).
        assert b.recover_stale() == []

    def test_heartbeat_thread_start_stop_idempotent(self, lock_dir):
        a = LockManager(lock_dir, owner="a", heartbeat_interval_s=0.01)
        a.start_heartbeat()
        a.start_heartbeat()
        a.stop_heartbeat()
        a.stop_heartbeat()

    def test_close_releases_everything(self, lock_dir):
        with LockManager(lock_dir, owner="a") as a:
            a.acquire("db.t0")
            a.start_heartbeat()
        assert a.held_keys() == []
        assert a.list_locks() == []


class TestAudit:
    def test_clean_lifecycle_verifies(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        b = LockManager(lock_dir, owner="b")
        a.context = "cycle:0"
        assert a.acquire("db.t0")
        assert not b.acquire("db.t0")
        a.audit_compaction("db.t0", version=2)
        a.release("db.t0")
        assert b.acquire("db.t0", context="cycle:1")
        b.audit_compaction("db.t0", version=3)
        b.release("db.t0")
        summary = verify_audit(lock_dir)
        assert summary.ok, summary.violations
        assert summary.acquires == 2
        assert summary.releases == 2
        assert summary.contends == 1
        assert summary.compact_commits == 2
        assert summary.double_compactions == {}

    def test_unlocked_compaction_is_a_violation(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        a.audit_compaction("db.t0", version=2)  # no lock held by anyone
        summary = verify_audit(lock_dir)
        assert not summary.ok
        assert "without a lock" in summary.violations[0]

    def test_double_compaction_same_trigger_is_a_violation(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        assert a.acquire("db.t0", context="cycle:7")
        a.audit_compaction("db.t0", version=2)
        a.audit_compaction("db.t0", version=3)  # same key, same trigger
        a.release("db.t0")
        summary = verify_audit(lock_dir)
        assert not summary.ok
        assert summary.double_compactions == {"db.t0/cycle:7": 2}

    def test_same_key_different_triggers_is_clean(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        for cycle in range(2):
            assert a.acquire("db.t0", context=f"cycle:{cycle}")
            a.audit_compaction("db.t0", version=cycle + 2)
            a.release("db.t0")
        summary = verify_audit(lock_dir)
        assert summary.ok, summary.violations

    def test_reclaim_is_recorded_and_clean(self, lock_dir):
        a = LockManager(lock_dir, owner="crashed")
        assert a.acquire("db.t0")
        path = a._path_for("db.t0")
        payload = json.loads(open(path).read())
        payload["pid"] = 2**22 + 99
        with open(path, "w") as stream:
            json.dump(payload, stream)
        a._held.clear()
        b = LockManager(lock_dir, owner="b")
        b.recover_stale()
        assert b.acquire("db.t0")
        b.release("db.t0")
        summary = verify_audit(lock_dir)
        assert summary.ok, summary.violations
        assert summary.reclaims == 1

    def test_read_audit_missing_log(self, tmp_path):
        assert read_audit(tmp_path / "nope") == []

    def test_verify_reports_a_record_lost_mid_log(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        a.acquire("db.t0")
        # A torn record with the next one glued on: the glued record is a
        # lock violation the log no longer shows.
        with open(os.path.join(lock_dir, AUDIT_LOG), "a", encoding="utf-8") as stream:
            stream.write('{"event": "acq{"event":"compact_commit","held":false,"key":"db.t"}\n')
        a.release("db.t0")
        summary = verify_audit(lock_dir)
        assert not summary.ok
        assert [v.split(":")[0] for v in summary.violations] == [f"{AUDIT_LOG} line 2"]
        assert [r["event"] for r in read_audit(lock_dir)] == ["acquire", "release"]

    def test_audit_lines_are_json(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        a.acquire("db.t0")
        a.release("db.t0")
        with open(os.path.join(lock_dir, AUDIT_LOG)) as stream:
            for line in stream:
                record = json.loads(line)
                assert record["owner"] == "a"
