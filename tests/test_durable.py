"""Tests for the shared durable-file helpers and the stores that use them."""

from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
import threading

import pytest

from repro.core import PolicyStore, ResumableStateMachine
from repro.durable import Appender, atomic_write, read_jsonl, sweep_temp_files
from repro.replay import PolicyVariant


@pytest.fixture
def rival_inside_replace(monkeypatch):
    """Run a rival writer on another thread inside the first ``os.replace``.

    The first writer has written its temp file and not yet renamed it: the
    window in which two writers of one path collide.  Returns a function
    that arms the hook with the rival and hands back the rival's errors.
    """
    real_replace = os.replace
    errors: list[BaseException] = []
    armed: list = []

    def replace(src, dst):
        if armed:
            rival = armed.pop()

            def run() -> None:
                try:
                    rival()
                except BaseException as exc:  # surfaced through the list
                    errors.append(exc)

            thread = threading.Thread(target=run)
            thread.start()
            thread.join(timeout=10)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)

    def arm(rival) -> list[BaseException]:
        armed.append(rival)
        return errors

    return arm


def _no_temp_files(directory) -> bool:
    return not [name for name in os.listdir(directory) if ".tmp" in name]


class TestAtomicWrite:
    def test_replaces_the_whole_file(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write(path, "old")
        atomic_write(path, "new")
        assert path.read_text(encoding="utf-8") == "new"
        assert _no_temp_files(tmp_path)

    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        atomic_write(path, "old")

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, "new")
        assert path.read_text(encoding="utf-8") == "old"
        assert _no_temp_files(tmp_path)

    def test_two_policy_stores_write_one_pool(self, tmp_path, rival_inside_replace):
        first = PolicyStore(tmp_path)
        second = PolicyStore(tmp_path)
        rival_errors = rival_inside_replace(
            lambda: second.set_pool([PolicyVariant(name="rival", k=3)])
        )
        first.set_pool([PolicyVariant(name="first", k=5)])
        assert rival_errors == []
        # The rival renamed first; the first writer's rename lands last.
        assert [v.name for v in first.pool()] == ["first"]
        assert _no_temp_files(tmp_path)

    def test_two_state_machines_write_one_unit(self, tmp_path, rival_inside_replace):
        first = ResumableStateMachine(tmp_path)
        second = ResumableStateMachine(tmp_path)
        rival_errors = rival_inside_replace(lambda: second.register(["db.t"]))
        assert first.register(["db.t"]) == 1
        assert rival_errors == []
        assert ResumableStateMachine(tmp_path).state_of("db.t") == "INIT"
        assert _no_temp_files(tmp_path)


class TestReadJsonl:
    def test_missing_file_reads_as_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == ([], [])

    def test_unterminated_tail_is_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n{"a": 3', encoding="utf-8")
        assert read_jsonl(path) == ([{"a": 1}, {"a": 2}], [])

    def test_corrupt_lines_are_reported(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"a": 2{"a": 3}\n[4]\n{"a": 5}\n', encoding="utf-8")
        records, errors = read_jsonl(path)
        assert records == [{"a": 1}, {"a": 5}]
        assert [error.split(":")[0] for error in errors] == ["line 2", "line 3"]


class TestAppender:
    def test_records_from_racing_threads_stay_whole_on_one_open(self, tmp_path, monkeypatch):
        opens = []
        real_file_io = io.FileIO

        class CountingFileIO(real_file_io):
            def __init__(self, *args, **kwargs):
                opens.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(io, "FileIO", CountingFileIO)
        path = tmp_path / "log.jsonl"
        appender = Appender(path)

        def writer(n: int) -> None:
            for i in range(200):
                appender.write(f'{{"writer": {n}, "i": {i}, "pad": "{"x" * 200}"}}\n'.encode())

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        appender.close()
        assert len(opens) == 1
        records, errors = read_jsonl(path)
        assert errors == []
        for n in range(4):
            assert [r["i"] for r in records if r["writer"] == n] == list(range(200))

    def test_a_write_after_close_reopens_and_appends(self, tmp_path):
        path = tmp_path / "log"
        appender = Appender(path)
        appender.write(b"a\n")
        appender.close()
        appender.close()  # idempotent
        os.replace(path, tmp_path / "log.1")  # what a roll does after closing
        appender.write(b"b\n")
        appender.close()
        assert path.read_bytes() == b"b\n"
        assert (tmp_path / "log.1").read_bytes() == b"a\n"

    def test_a_dropped_open_appender_warns(self, tmp_path):
        appender = Appender(tmp_path / "log")
        appender.write(b"a\n")
        with pytest.warns(ResourceWarning):
            del appender
            gc.collect()


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestSweepTempFiles:
    def test_removes_only_the_temp_files_of_dead_writers(self, tmp_path):
        dead, live = _dead_pid(), os.getppid()
        names = [
            f"active.json.tmp.{dead}.7",  # killed writer: removed
            f"active.json.tmp.{live}.7",  # another live writer
            f"active.json.tmp.{os.getpid()}.7",  # this process
            f"db.tmp.{dead}.json",  # a unit whose name looks like a temp file
            "active.json",
        ]
        for name in names:
            (tmp_path / name).write_text("{}", encoding="utf-8")
        sweep_temp_files(tmp_path)
        assert sorted(os.listdir(tmp_path)) == sorted(names[1:])

    @pytest.mark.parametrize("store", [PolicyStore, ResumableStateMachine])
    def test_opening_a_store_sweeps_its_directory(self, tmp_path, store):
        orphan = tmp_path / f"unit.json.tmp.{_dead_pid()}.7"
        orphan.write_text("{}", encoding="utf-8")
        store(tmp_path)
        assert not orphan.exists()
