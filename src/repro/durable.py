"""Durable files: the one atomic writer and the one JSONL log reader.

:func:`atomic_write` replaces a whole file (``active.json``, daemon unit
state, ``contracts.json``, observability exports) through a temp file and
``os.replace``, so readers see the old file or the new one, never a torn
write.  The temp name carries the process and thread id, so two writers
of one path (two daemons sharing a store directory) never truncate or
rename away each other's temp file.  A write that fails removes its temp
file; a writer killed between the write and the rename leaves one behind,
and :func:`sweep_temp_files` removes those once their process is gone.

:func:`read_jsonl` reads an append-only log (the lock and promotion
audits).  A final line without its newline is an append still in flight
and is skipped; any other line that does not parse is returned as an
error, so a verifier reports a log that lost a record instead of passing
it.  Standard library only: every layer may import this module.
"""

from __future__ import annotations

import contextlib
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


def sweep_temp_files(directory: str | os.PathLike) -> None:
    """Remove the temp files of writers that were killed mid-write.

    A temp file goes when the process named in it no longer runs on this
    host; those of live writers, this process's included, stay.
    """
    for name in os.listdir(directory):
        match = _TEMP_NAME.search(name)
        if match is None or int(match.group(1)) == os.getpid():
            continue
        try:
            os.kill(int(match.group(1)), 0)
        except ProcessLookupError:  # the writer is gone
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(directory, name))
        except OSError:
            pass  # it runs under another user


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
