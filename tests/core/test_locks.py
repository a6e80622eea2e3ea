"""Tests for the per-table lock files, stale recovery, and the audit log."""

from __future__ import annotations

import builtins
import io
import json
import os
import shutil
import socket
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateKey, CandidateScope
from repro.core.locks import (
    AUDIT_LOG,
    HOLDERS_DIR,
    LOCK_SUFFIX,
    LockManager,
    default_owner,
    lock_slug,
    verify_audit,
)
from repro.durable import read_jsonl
from repro.errors import ValidationError


@pytest.fixture
def lock_dir(tmp_path):
    return str(tmp_path / "locks")


@pytest.fixture
def file_opens(monkeypatch):
    """Every ``os.open``, ``io.FileIO`` and ``open`` call, as ``(path, creates)``.

    ``creates`` is whether the open may create the file: ``O_CREAT`` for
    ``os.open``, a ``w``/``a``/``x`` mode otherwise.
    """
    opened: list[tuple[str, bool]] = []
    real_os_open, real_file_io, real_open = os.open, io.FileIO, builtins.open

    def os_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), bool(flags & os.O_CREAT)))
        return real_os_open(path, flags, *args, **kwargs)

    def creates(mode):
        return any(letter in mode for letter in "wax")

    class FileIO(real_file_io):
        def __init__(self, file, mode="r", *args, **kwargs):
            if not isinstance(file, int):
                opened.append((os.fspath(file), creates(mode)))
            super().__init__(file, mode, *args, **kwargs)

    def open_(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            opened.append((os.fspath(file), creates(mode)))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(io, "FileIO", FileIO)
    monkeypatch.setattr(builtins, "open", open_)
    return opened


def lock_names(lock_dir) -> list[str]:
    return sorted(name for name in os.listdir(lock_dir) if name.endswith(LOCK_SUFFIX))


def read_audit(lock_dir) -> list[dict]:
    """The parsed records of a lock directory's audit log."""
    return read_jsonl(os.path.join(lock_dir, AUDIT_LOG))[0]


def last_audit(lock_dir) -> dict:
    return read_audit(lock_dir)[-1]


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
        with open(path, encoding="utf-8") as stream:
            payload = json.load(stream)
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

    def test_stale_release_leaves_the_lock_a_sibling_retook(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        b = LockManager(lock_dir, owner="b")
        assert a.acquire("db.t0")
        path = a._path_for("db.t0")
        os.utime(path, (0, 0))  # a's heartbeat stopped long ago
        assert b.recover_stale() == ["db.t0"]
        assert b.acquire("db.t0")
        assert not a.release("db.t0")  # the name links b's holder now
        assert not a.holds("db.t0")
        stat = os.stat(path)
        assert (stat.st_dev, stat.st_ino) == b._held["db.t0"][0].inode
        c = LockManager(lock_dir, owner="c")
        assert not c.acquire("db.t0")
        summary = verify_audit(lock_dir)
        assert summary.ok, summary.violations
        assert summary.releases == 0
        assert a.acquire("db.t1")  # a's holder went back to its free list
        for manager in (a, b, c):
            manager.close()

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
        with open(path, encoding="utf-8") as stream:
            payload = json.load(stream)
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


class TestHolderReuse:
    """Locks are hard links to reused holder files: no file made or freed per lock."""

    KEYS = [f"db.t{i}" for i in range(8)]

    def test_rounds_after_warm_up_create_no_file(self, lock_dir, file_opens):
        with LockManager(lock_dir, owner="a") as a:
            for key in self.KEYS:  # warm-up: one holder per lock held at once
                assert a.acquire(key)
            a.release_all()
            file_opens.clear()
            for _ in range(100):
                for key in self.KEYS:
                    assert a.acquire(key)
                for key in self.KEYS:
                    assert a.release(key)
            created = [path for path, creates in file_opens if creates]
            assert [path for path in created if path.startswith(lock_dir)] == []
        assert verify_audit(lock_dir).acquires == 808

    def test_a_thousand_audit_lines_take_one_open(self, lock_dir, file_opens):
        with LockManager(lock_dir, owner="a") as a:
            for version in range(1000):
                a.audit_compaction("db.t0", version=version)
            assert [path for path, _ in file_opens if path == a.audit_path] == [a.audit_path]
        assert [r["version"] for r in read_audit(lock_dir)] == list(range(1000))

    def test_an_exception_before_the_link_leaves_no_lock_name(self, lock_dir, monkeypatch):
        a = LockManager(lock_dir, owner="a")

        def killed_link(src, dst):
            raise RuntimeError("killed between the payload write and the link")

        monkeypatch.setattr(os, "link", killed_link)
        with pytest.raises(RuntimeError):
            a.acquire("db.t0")
        monkeypatch.undo()
        assert lock_names(lock_dir) == []
        assert not a.holds("db.t0")
        b = LockManager(lock_dir, owner="b")
        assert b.acquire("db.t0")
        b.release("db.t0")
        assert a.acquire("db.t0")  # the holder went back to the free list
        assert a.inspect_table("db.t0").owner == "a"
        a.close()

    def test_a_vanished_holder_is_replaced(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        assert a.acquire("db.t0")
        assert a.release("db.t0")
        shutil.rmtree(os.path.join(lock_dir, HOLDERS_DIR))
        assert a.acquire("db.t0", context="cycle:1")
        reader = LockManager(lock_dir, owner="reader")
        info = reader.inspect_table("db.t0")
        assert (info.owner, info.context) == ("a", "cycle:1")
        a.close()
        assert lock_names(lock_dir) == []

    def test_close_removes_the_holder_directory_and_stays_usable(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        assert a.acquire("db.t0")
        a.close()
        assert os.listdir(os.path.join(lock_dir, HOLDERS_DIR)) == []
        assert a.acquire("db.t1")
        a.close()
        assert lock_names(lock_dir) == []
        assert os.listdir(os.path.join(lock_dir, HOLDERS_DIR)) == []
        assert verify_audit(lock_dir).ok

    def test_opening_sweeps_holder_directories_of_dead_processes(self, lock_dir):
        root = os.path.join(lock_dir, HOLDERS_DIR)
        host = socket.gethostname()
        dead_pid = 2**22 + 4321  # beyond default pid_max
        dead = os.path.join(root, f"{host}.{dead_pid}.0")
        live = os.path.join(root, f"{host}.{os.getpid()}.9999")
        elsewhere = os.path.join(root, f"elsewhere.{dead_pid}.0")
        for directory in (dead, live, elsewhere):
            os.makedirs(directory)
            open(os.path.join(directory, "h0"), "wb").close()
        LockManager(lock_dir, owner="a").close()
        assert sorted(os.listdir(root)) == sorted(
            os.path.basename(d) for d in (live, elsewhere)
        )


class TestCommitStamp:
    def test_commit_under_own_table_lock_reads_no_lock_file(self, lock_dir, monkeypatch):
        a = LockManager(lock_dir, owner="a")
        assert a.acquire(CandidateKey("db", "t0", CandidateScope.TABLE), context="cycle:3")
        reads = []
        real_read = a._read_lock

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(a, "_read_lock", counting_read)
        a.audit_compaction("db.t0", version=2)
        assert reads == []
        record = last_audit(lock_dir)
        assert (record["held"], record["holder"], record["context"]) == (True, "a", "cycle:3")

    def test_stamp_names_a_sibling_that_reclaimed_and_retook_the_lock(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        b = LockManager(lock_dir, owner="b")
        assert a.acquire("db.t0", context="cycle:1")
        os.utime(a._path_for("db.t0"), (0, 0))  # a's heartbeat stopped long ago
        assert b.recover_stale() == ["db.t0"]
        assert b.acquire("db.t0", context="cycle:2")
        assert a.holds("db.t0")  # a has not noticed
        a.audit_compaction("db.t0", version=5)
        record = last_audit(lock_dir)
        assert (record["held"], record["holder"], record["context"]) == (True, "b", "cycle:2")


def write_lock_file(path, content: bytes, ancient: bool) -> None:
    with open(path, "wb") as stream:
        stream.write(content)
    if ancient:
        os.utime(path, (0, 0))


UNREADABLE = {
    "empty": b"",
    "torn": b'{"key": "db.t0", "own',
    "not-an-object": b"[1, 2]",
    "other-key": json.dumps({"key": "db.t9", "owner": "x", "pid": 1}).encode(),
}


class TestTornLockFiles:
    """A lock file that does not parse, or names another key, cannot wedge its table."""

    @pytest.mark.parametrize("content", sorted(UNREADABLE))
    def test_a_stale_unreadable_lock_file_is_reclaimed(self, lock_dir, content):
        a = LockManager(lock_dir, owner="a")
        path = a._path_for("db.t0")
        write_lock_file(path, UNREADABLE[content], ancient=True)
        assert a.inspect_table("db.t0") is None
        assert not a.acquire("db.t0")
        assert a.recover_stale() == []  # no key to report
        assert lock_names(lock_dir) == []
        reclaim = [r for r in read_audit(lock_dir) if r["event"] == "reclaim"]
        assert [r["file"] for r in reclaim] == [os.path.basename(path)]
        assert a.acquire("db.t0")
        a.release("db.t0")
        assert verify_audit(lock_dir).ok

    @pytest.mark.parametrize("content", sorted(UNREADABLE))
    def test_a_fresh_unreadable_lock_file_stays(self, lock_dir, content):
        a = LockManager(lock_dir, owner="a")
        path = a._path_for("db.t0")
        write_lock_file(path, UNREADABLE[content], ancient=False)
        assert a.recover_stale() == []
        assert lock_names(lock_dir) == [os.path.basename(path)]
        assert [r for r in read_audit(lock_dir) if r["event"] == "reclaim"] == []

    def test_a_payload_of_another_key_is_not_read_as_the_lock(self, lock_dir):
        a = LockManager(lock_dir, owner="a")
        write_lock_file(a._path_for("db.t0"), UNREADABLE["other-key"], ancient=False)
        assert a.list_locks() == []
        assert a.inspect_table("db.t9") is None


#: Keys the oracle test locks: two table locks and a partition lock of one.
ORACLE_KEYS = [
    CandidateKey("db", "t0", CandidateScope.TABLE),
    CandidateKey("db", "t0", CandidateScope.PARTITION, partition=(1,)),
    CandidateKey("db", "t1", CandidateScope.TABLE),
]
ORACLE_STEPS = st.tuples(
    st.sampled_from(["acquire", "release", "recover", "commit"]),
    st.integers(0, 1),
    st.integers(0, len(ORACLE_KEYS) - 1),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(ORACLE_STEPS, max_size=30))
def test_commit_stamps_equal_a_disk_reading_oracle(steps):
    """Every ``compact_commit`` line is the one a lock-file read would give.

    Two managers acquire, release, reclaim each other's locks (forced
    stale) and commit; an oracle manager that holds nothing, and so
    always reads the lock files, says what each commit must be stamped
    with.
    """
    with tempfile.TemporaryDirectory() as root:
        lock_dir = os.path.join(root, "locks")
        managers = [LockManager(lock_dir, owner=f"m{i}") for i in range(2)]
        oracle = LockManager(lock_dir, owner="oracle")
        expected = []
        try:
            for step, (op, who, which) in enumerate(steps):
                manager, key = managers[who], ORACLE_KEYS[which]
                if op == "acquire":
                    manager.acquire(key, context=f"step:{step}")
                elif op == "release":
                    manager.release(key)
                elif op == "recover":
                    for name in lock_names(lock_dir):
                        os.utime(os.path.join(lock_dir, name), (0, 0))
                    manager.recover_stale()
                else:
                    table = key.qualified_table
                    info = oracle.inspect_table(table)
                    stamp = (info.owner, info.context) if info else (None, None)
                    expected.append((table, info is not None, *stamp))
                    manager.audit_compaction(table, version=step)
            commits = [
                (r["key"], r["held"], r["holder"], r["context"])
                for r in read_audit(lock_dir)
                if r["event"] == "compact_commit"
            ]
            assert commits == expected
        finally:
            for manager in (*managers, oracle):
                manager.close()
