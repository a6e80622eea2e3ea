"""Durable files: the one atomic writer, the one appender and the one JSONL log reader.

:func:`atomic_write` replaces a whole file (``active.json``, daemon unit
state, ``contracts.json``, observability exports) through a temp file and
``os.replace``, so readers see the old file or the new one, never a torn
write.  The temp name carries the process and thread id, so two writers
of one path (two daemons sharing a store directory) never truncate or
rename away each other's temp file.  A write that fails removes its temp
file; a writer killed between the write and the rename leaves one behind,
and :func:`sweep_temp_files` removes those once their process is gone.

:class:`Appender` is the one writer of append-only logs (the lock and
promotion audits, the rolled trace and metrics logs): it holds one
``O_APPEND`` file and hands each record to a single ``write``, so records
from several writers, processes included, never interleave.

:func:`read_jsonl` reads an append-only log (the lock and promotion
audits).  A final line without its newline is an append still in flight
and is skipped; any other line that does not parse is returned as an
error, so a verifier reports a log that lost a record instead of passing
it.  Standard library only: every layer may import this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import threading

#: The suffix :func:`atomic_write` gives a temp file: ``.tmp.<pid>.<thread>``.
_TEMP_NAME = re.compile(r"\.tmp\.(\d+)\.\d+\Z")


def atomic_write(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` via a per-writer temp file."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def process_gone(pid: int) -> bool:
    """Whether ``pid`` names no running process on this host.

    A process of another user counts as running, and this process never
    counts as gone.
    """
    if pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        pass  # it runs under another user
    return False


def sweep_temp_files(directory: str | os.PathLike) -> None:
    """Remove the temp files of writers that were killed mid-write.

    A temp file goes when :func:`process_gone` says so of the process
    named in it; those of live writers, this process's included, stay.
    """
    for name in os.listdir(directory):
        match = _TEMP_NAME.search(name)
        if match is not None and process_gone(int(match.group(1))):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(directory, name))


class Appender:
    """One append-only file, written a whole record at a time.

    The file is opened on the first :meth:`write` and held: an
    unbuffered binary ``O_APPEND`` file, so each record is one ``write``
    call, which POSIX appends whole at the file's end whoever else
    appends to it.  Writes are serialised by the appender's own lock.
    :meth:`close` releases the descriptor; a later write opens the file
    again, so an owner that renames the file away (a roll) closes first.
    An appender dropped open warns (``ResourceWarning``); owners close
    it, or register :meth:`close` with :func:`weakref.finalize`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._file: io.FileIO | None = None

    def write(self, record: bytes) -> None:
        """Append ``record`` with one ``write`` call."""
        with self._lock:
            if self._file is None:
                self._file = io.FileIO(self.path, "a")
            os.write(self._file.fileno(), record)

    def close(self) -> None:
        """Close the file (idempotent); a later write reopens it."""
        with self._lock:
            stream, self._file = self._file, None
        if stream is not None:
            stream.close()


def read_jsonl(path: str | os.PathLike) -> tuple[list[dict], list[str]]:
    """The records of a JSONL log and the lines that do not parse.

    A missing file reads as empty and blank lines are skipped.  A final
    line without its newline is skipped as well, because an append may
    be racing the read.  Every other line that is not a JSON object is
    reported in the second list as ``"line N: ..."`` (1-based).
    """
    records: list[dict] = []
    errors: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as stream:
            for number, line in enumerate(stream, 1):
                if not line.endswith("\n") or not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    errors.append(f"line {number}: does not parse ({exc})")
                    continue
                if isinstance(record, dict):
                    records.append(record)
                else:
                    errors.append(f"line {number}: not a JSON object")
    except FileNotFoundError:
        pass
    return records, errors
