"""File-based per-table/partition compaction locks with crash-safe recovery.

The daemonized control plane (:mod:`repro.core.daemon`) may run several
AutoComp instances against one catalog — overlapping scheduled cycles in
one process, or independent daemon processes sharing a warehouse.  The
invariant they must uphold is the paper's §7 production rule: **no unit is
ever double-compacted**.  :class:`LockManager` enforces it with plain
lock *files* (the Arc compaction daemon's approach).  A lock is a hard
link: the manager writes the lock's payload into a *holder* file of its
own, then links the holder to the lock's name in a shared directory
with ``os.link``.  ``link`` fails with ``EEXIST`` when the name is taken, so
acquisition is atomic across threads, processes and (on a shared
filesystem, NFS included) machines, and a lock file never exists without
its whole payload.  A crashed daemon leaves evidence — a lock file whose
owning pid is dead or whose heartbeat mtime has gone stale — that
:meth:`LockManager.recover_stale` reclaims on the next startup; it also
reclaims a lock file that does not parse, or whose payload names another
key, once its mtime is stale.

Holders are reused: each manager keeps one holder file per lock it holds
at the same time under ``holders/<host>.<pid>.<n>/`` and rewrites it in
place for the next lock, so taking or releasing a lock creates and frees
no file.  Because a released holder is rewritten for another key, a
reader that opened a lock name just before its release may read the next
key's payload; :meth:`LockManager._read_lock` therefore rejects a payload
whose key does not hash to the file's name.  A manager removes its
holder directory on :meth:`~LockManager.close`, and on opening removes
this host's holder directories whose process is gone.

Every lock transition is appended to a shared **audit log**
(``audit.jsonl`` in the lock directory, written through one
:class:`repro.durable.Appender`): ``acquire`` / ``release`` /
``contend`` / ``reclaim``, plus ``compact_commit`` records written by the
catalog's lock hooks (:meth:`repro.catalog.catalog.Catalog.attach_locks`)
whenever a rewrite commits.  A commit under a lock this manager holds is
stamped from memory when one ``stat`` shows that the lock's name still
links this manager's holder; otherwise the lock file is read from disk,
so a sibling that reclaimed and re-took the lock is named.
:meth:`~LockManager.release` makes the same ``stat`` check and leaves such a
sibling's lock file in place.
:func:`verify_audit` replays the log and proves the invariant after the
fact: every compaction committed under a held lock, no key was ever held
by two owners at once, and no (key, context) pair was compacted twice —
the check the daemon soak and crash-recovery suites gate on.

Ordering discipline: ``acquire`` lines are appended *after* the lock file
is linked, ``release``/``reclaim`` lines *before* it is removed.  Any
later acquisition of the same key can only link its file after the
previous holder removed it, so its audit line lands after the previous
holder's release line — the log's per-key event order is therefore
consistent even across racing processes (appends of one JSON line are
atomic on POSIX for ``O_APPEND`` writes under ``PIPE_BUF``).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import re
import shutil
import socket
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

from repro import durable
from repro.errors import ValidationError
from repro.obs.tracing import timed

#: File name of the shared audit log inside the lock directory.
AUDIT_LOG = "audit.jsonl"

#: Suffix of lock files inside the lock directory.
LOCK_SUFFIX = ".lock"

#: Directory, inside the lock directory, of every manager's holder files.
HOLDERS_DIR = "holders"

_SLUG_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: Characters of the sanitised key kept in a lock file's name.
_SLUG_PREFIX = 80

#: Per-process counter so several managers in one process (e.g. two daemon
#: instances in a soak test) get distinct owner identities.
_OWNER_COUNTER = threading.Lock(), [0]

#: Per-process counter naming each manager's holder directory.
_HOLDER_DIRS = itertools.count()


def lock_slug(key: object) -> str:
    """A filesystem-safe, collision-resistant file stem for a lock key.

    Readable prefix (sanitised key string, truncated) plus a short content
    hash, so distinct keys can never alias after sanitisation.
    """
    text = str(key)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=6).hexdigest()
    prefix = _SLUG_UNSAFE.sub("_", text)[:_SLUG_PREFIX].strip("_") or "key"
    return f"{prefix}.{digest}"


def default_owner() -> str:
    """A distinct owner identity: ``pid<pid>.<per-process counter>``."""
    lock, counter = _OWNER_COUNTER
    with lock:
        counter[0] += 1
        return f"pid{os.getpid()}.{counter[0]}"


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (best effort, POSIX)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


class _Holder(NamedTuple):
    """One holder file: its path, its open descriptor and its inode."""

    path: str
    fd: int
    inode: tuple[int, int]  # (st_dev, st_ino)


def _fill(fd: int, data: bytes) -> None:
    """Rewrite an open file in place to hold exactly ``data``.

    Written over, then cut to length: never truncated to zero first,
    which would make ext4 flush the file when it is closed.
    """
    os.pwrite(fd, data, 0)
    os.ftruncate(fd, len(data))


def _release_holders(
    holder_dir: str, pid: int, holders: list, free: list, audit_file: durable.Appender
) -> None:
    """Close a manager's holder files and audit log; remove its holder directory."""
    for holder in holders:
        with contextlib.suppress(OSError):
            os.close(holder.fd)
    holders.clear()
    free.clear()
    audit_file.close()
    if os.getpid() == pid:  # a forked child leaves its parent's holders alone
        shutil.rmtree(holder_dir, ignore_errors=True)


def _sweep_holder_dirs(root: str) -> None:
    """Remove this host's holder directories whose process is gone.

    The same rule as :func:`repro.durable.sweep_temp_files`: directories
    of other hosts, of live processes and of this process stay.
    """
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return
    host = socket.gethostname()
    for name in names:
        parts = name.rsplit(".", 2)
        if (
            len(parts) == 3
            and parts[0] == host
            and parts[1].isdigit()
            and durable.process_gone(int(parts[1]))
        ):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)


@dataclass(frozen=True)
class LockInfo:
    """Parsed contents of one lock file."""

    key: str
    table: str
    owner: str
    pid: int
    acquired_at: float
    context: str | None = None
    path: str = ""


@dataclass
class AuditSummary:
    """Outcome of :func:`verify_audit` over one lock directory."""

    events: int = 0
    acquires: int = 0
    releases: int = 0
    contends: int = 0
    reclaims: int = 0
    compact_commits: int = 0
    #: ``(key, context)`` pairs compacted more than once, with counts.
    double_compactions: dict = field(default_factory=dict)
    #: Human-readable invariant violations (empty = clean log).
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the log upholds every no-double-compaction invariant."""
        return not self.violations


class LockManager:
    """Per-key compaction locks over a shared directory.

    Args:
        lock_dir: shared directory holding lock files and the audit log
            (created if missing).  Concurrent daemons coordinating on one
            catalog must point at the *same* directory.
        owner: identity stamped into lock files and audit lines; defaults
            to a per-process-unique ``pid<pid>.<n>``.
        stale_after_s: a lock whose heartbeat mtime is older than this is
            reclaimable even when its pid looks alive (covers hung
            daemons and pid reuse); the holder's heartbeat must therefore
            beat faster than this.
        heartbeat_interval_s: cadence of the optional background
            heartbeat thread (defaults to ``stale_after_s / 3``).
        clock: wall-clock source for timestamps (monkeypatchable in tests).
        telemetry: optional metric sink; every audit event also bumps an
            ``autocomp.locks.<event>`` counter there, and acquire attempts
            feed the ``autocomp.hist.lock_wait_s`` wait histogram — so the
            exporter surfaces lock behavior without parsing the audit log.

    Attributes:
        context: free-form trigger/cycle identifier stamped into
            subsequently acquired locks and their audit lines — the daemon
            sets it per cycle (``cycle:<n>``) or per backfill unit, and
            :func:`verify_audit` uses it to prove at-most-once-per-trigger
            compaction.
    """

    def __init__(
        self,
        lock_dir: str | os.PathLike,
        owner: str | None = None,
        stale_after_s: float = 30.0,
        heartbeat_interval_s: float | None = None,
        clock=time.time,
        telemetry=None,
    ) -> None:
        if stale_after_s <= 0:
            raise ValidationError("stale_after_s must be positive")
        if heartbeat_interval_s is not None and heartbeat_interval_s <= 0:
            raise ValidationError("heartbeat_interval_s must be positive")
        self.lock_dir = os.fspath(lock_dir)
        os.makedirs(self.lock_dir, exist_ok=True)
        self.owner = owner if owner is not None else default_owner()
        self.stale_after_s = stale_after_s
        self.heartbeat_interval_s = (
            heartbeat_interval_s if heartbeat_interval_s is not None else stale_after_s / 3.0
        )
        self.context: str | None = None
        self.telemetry = telemetry
        self._clock = clock
        # key string -> (its holder, the lock as written)
        self._held: dict[str, tuple[_Holder, LockInfo]] = {}
        self._holders: list[_Holder] = []  # every open holder file
        self._free: list[_Holder] = []  # holders not linked as a held lock
        self._holders_made = 0
        self._mutex = threading.Lock()
        self._hb_stop: threading.Event | None = None
        self._hb_thread: threading.Thread | None = None
        self.audit_path = os.path.join(self.lock_dir, AUDIT_LOG)
        self._audit_file = durable.Appender(self.audit_path)
        holders_root = os.path.join(self.lock_dir, HOLDERS_DIR)
        _sweep_holder_dirs(holders_root)
        pid = os.getpid()
        self._holder_dir = os.path.join(
            holders_root, f"{socket.gethostname()}.{pid}.{next(_HOLDER_DIRS)}"
        )
        weakref.finalize(
            self,
            _release_holders,
            self._holder_dir,
            pid,
            self._holders,
            self._free,
            self._audit_file,
        )

    # --- acquisition -----------------------------------------------------------

    def _path_for(self, key: object) -> str:
        return os.path.join(self.lock_dir, lock_slug(key) + LOCK_SUFFIX)

    def acquire(self, key: object, context: str | None = None) -> bool:
        """Try to take the lock for ``key``; never blocks.

        Returns ``True`` on success (the key is now held by this manager)
        and ``False`` when any holder — this manager included — already
        has it.  Contended attempts are audited, so the soak's lock audit
        shows how often concurrent daemons actually collided.
        """
        text = str(key)
        ctx = context if context is not None else self.context
        table = getattr(key, "qualified_table", text)
        info = LockInfo(
            key=text,
            table=str(table),
            owner=self.owner,
            pid=os.getpid(),
            acquired_at=float(self._clock()),
            context=ctx,
            path=self._path_for(key),
        )
        data = json.dumps(
            {
                "key": text,
                "table": table,
                "owner": info.owner,
                "pid": info.pid,
                "acquired_at": info.acquired_at,
                "context": ctx,
            }
        ).encode("utf-8")
        # Mutex wait + lock-file link: what a cycle actually stalls on
        # when sibling threads/daemons contend.
        with timed(None, "lock.acquire", "autocomp.hist.lock_wait_s", self.telemetry):
            with self._mutex:
                holder = None if text in self._held else self._link(data, info.path)
                if holder is None:
                    self._audit("contend", key=text, context=ctx)
                    return False
                self._held[text] = (holder, info)
                self._audit("acquire", key=text, context=ctx)
                return True

    def _link(self, data: bytes, path: str) -> _Holder | None:
        """Link a holder holding ``data`` as ``path``; None when ``path`` exists.

        Called under ``_mutex``.  The holder comes from the free list (or
        is created) and goes back to it unless it ends up linked, so an
        exception before the link leaves neither a lock name nor a lost
        holder behind.  A holder whose file has vanished is replaced.
        """
        holder = self._free.pop() if self._free else self._new_holder()
        try:
            _fill(holder.fd, data)
            try:
                os.link(holder.path, path)
            except FileNotFoundError:
                if os.path.exists(holder.path):
                    raise  # the lock directory itself is gone
                gone, holder = holder, self._new_holder()
                self._holders.remove(gone)
                os.close(gone.fd)
                _fill(holder.fd, data)
                os.link(holder.path, path)
        except FileExistsError:
            self._free.append(holder)
            return None
        except BaseException:
            self._free.append(holder)
            raise
        return holder

    def _new_holder(self) -> _Holder:
        """Create one more holder file (called under ``_mutex``)."""
        os.makedirs(self._holder_dir, exist_ok=True)
        path = os.path.join(self._holder_dir, f"h{self._holders_made}")
        self._holders_made += 1
        # A file of this name belongs to a dead process this pid was reused
        # for; unlinking the name leaves any lock it still backs intact.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644)
        stat = os.fstat(fd)
        holder = _Holder(path, fd, (stat.st_dev, stat.st_ino))
        self._holders.append(holder)
        return holder

    def release(self, key: object) -> bool:
        """Release a held lock; returns whether this manager still held it.

        A lock whose name no longer links this manager's holder was
        reclaimed and taken again by a sibling: its file is left alone and
        no ``release`` is audited, and the result is ``False``.
        """
        text = str(key)
        with self._mutex:
            entry = self._held.pop(text, None)
            if entry is None:
                return False
            holder, info = entry
            try:
                stat = os.stat(info.path)
            except FileNotFoundError:
                stat = None
            if stat is not None and (stat.st_dev, stat.st_ino) != holder.inode:
                self._free.append(holder)
                return False
            # Audit *before* unlinking: the next acquirer's audit line can
            # then only land after ours (see module docstring).
            self._audit("release", key=text)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(info.path)
            self._free.append(holder)
            return True

    def release_all(self) -> int:
        """Release every lock this manager holds; returns the count."""
        with self._mutex:
            held = list(self._held)
        released = 0
        for key in held:
            released += bool(self.release(key))
        return released

    def held_keys(self) -> list[str]:
        """Key strings currently held by this manager, sorted."""
        with self._mutex:
            return sorted(self._held)

    def holds(self, key: object) -> bool:
        """Whether this manager currently holds ``key``."""
        with self._mutex:
            return str(key) in self._held

    # --- inspection / recovery -------------------------------------------------

    def _read_lock(self, path: str) -> LockInfo | None:
        """The lock file at ``path``, parsed; None when unreadable.

        A payload whose key does not hash to the file's name is unreadable
        too: it is a released holder rewritten for another key.
        """
        try:
            with open(path, "rb") as stream:
                data = json.loads(stream.read())
            info = LockInfo(
                key=str(data["key"]),
                table=str(data.get("table", data["key"])),
                owner=str(data.get("owner", "")),
                pid=int(data.get("pid", 0)),
                acquired_at=float(data.get("acquired_at", 0.0)),
                context=data.get("context"),
                path=path,
            )
        except (OSError, ValueError, TypeError, KeyError, AttributeError):
            return None
        if lock_slug(info.key) + LOCK_SUFFIX != os.path.basename(path):
            return None
        return info

    def _lock_names(self) -> list[str]:
        """Names of the lock files in the directory, sorted."""
        try:
            names = os.listdir(self.lock_dir)
        except FileNotFoundError:
            return []
        return sorted(name for name in names if name.endswith(LOCK_SUFFIX))

    def list_locks(self) -> list[LockInfo]:
        """Every readable lock file currently present in the directory, parsed."""
        infos = []
        for name in self._lock_names():
            info = self._read_lock(os.path.join(self.lock_dir, name))
            if info is not None:
                infos.append(info)
        return infos

    def inspect_table(self, qualified_table: str) -> LockInfo | None:
        """The current lock (any scope, any owner) over ``db.table``, if any.

        Reads lock files from disk, so it sees locks held by *other*
        daemon instances too — the catalog's compaction-audit hook uses it
        to stamp each rewrite commit with the holder that covered it.

        Fast path: the table-scope lock file is read directly — or, when
        this manager holds it and the name still links this manager's
        holder, taken from memory.  When it exists it is also what the
        directory scan would return first: the same table's partition- and
        snapshot-scope slugs share its sanitised prefix and continue with
        ``_`` where the table slug continues with ``.``, which sorts first.
        That holds only while the key's bracketed suffix survives the
        slug's 80-character truncation, so longer names (and an absent
        table lock) take the scan.
        """
        if len(_SLUG_UNSAFE.sub("_", qualified_table)) <= _SLUG_PREFIX - 2:
            info = self._own_lock(qualified_table) or self._read_lock(
                self._path_for(qualified_table)
            )
            if info is not None and qualified_table in (info.table, info.key):
                return info
        return self._scan_table(qualified_table)

    def _own_lock(self, key: str) -> LockInfo | None:
        """This manager's lock on ``key`` while its name links the holder (one stat).

        A sibling that reclaimed the lock and took it again linked its own
        holder, a different inode, so its lock is read from disk instead.
        """
        with self._mutex:
            entry = self._held.get(key)
        if entry is None:
            return None
        holder, info = entry
        try:
            stat = os.stat(info.path)
        except OSError:
            return None
        return info if (stat.st_dev, stat.st_ino) == holder.inode else None

    def _scan_table(self, qualified_table: str) -> LockInfo | None:
        for info in self.list_locks():
            if info.table == qualified_table or info.key == qualified_table:
                return info
        return None

    def is_stale(self, info: LockInfo) -> bool:
        """Whether a lock file is reclaimable (dead pid or stale heartbeat)."""
        with self._mutex:
            held_by_us = info.key in self._held
        if held_by_us:
            return False  # never reclaim our own
        try:
            mtime = os.path.getmtime(info.path)
        except OSError:
            return False  # vanished — nothing to reclaim
        if not _pid_alive(info.pid):
            return True
        return (self._clock() - mtime) > self.stale_after_s

    def recover_stale(self) -> list[str]:
        """Reclaim crash-leftover locks; returns the reclaimed key strings.

        Run once on daemon startup (and safe to run any time): a lock is
        reclaimed when its owning pid is dead, or when its heartbeat mtime
        is older than ``stale_after_s`` — a live holder heartbeats faster
        than that, so only crashed or wedged owners lose their locks.  A
        lock file that does not parse, or whose payload names another key,
        is reclaimed once its mtime is that old too; its ``reclaim`` line
        names the file, as there is no key to name.
        """
        reclaimed = []
        for name in self._lock_names():
            path = os.path.join(self.lock_dir, name)
            info = self._read_lock(path)
            if info is None:
                try:
                    stale = (self._clock() - os.path.getmtime(path)) > self.stale_after_s
                except OSError:
                    continue  # vanished
                if stale:
                    self._audit("reclaim", file=name)
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(path)
                continue
            if not self.is_stale(info):
                continue
            self._audit(
                "reclaim",
                key=info.key,
                stale_owner=info.owner,
                stale_pid=info.pid,
                context=info.context,
            )
            try:
                os.unlink(info.path)
            except FileNotFoundError:
                continue
            reclaimed.append(info.key)
        return reclaimed

    # --- heartbeat --------------------------------------------------------------

    def heartbeat(self) -> int:
        """Touch every held lock's mtime; returns how many were touched."""
        with self._mutex:
            paths = [info.path for _, info in self._held.values()]
        touched = 0
        for path in paths:
            try:
                os.utime(path)
                touched += 1
            except OSError:
                continue
        return touched

    def start_heartbeat(self) -> None:
        """Start the background heartbeat thread (idempotent).

        Keeps held locks' mtimes fresh so long-running cycles are never
        mistaken for crashes by a sibling daemon's staleness check.
        """
        if self._hb_thread is not None:
            return
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_interval_s):
                self.heartbeat()

        thread = threading.Thread(target=beat, name="lock-heartbeat", daemon=True)
        self._hb_stop = stop
        self._hb_thread = thread
        thread.start()

    def stop_heartbeat(self) -> None:
        """Stop the background heartbeat thread (idempotent)."""
        if self._hb_thread is None:
            return
        assert self._hb_stop is not None
        self._hb_stop.set()
        self._hb_thread.join(timeout=5.0)
        self._hb_thread = None
        self._hb_stop = None

    # --- audit ------------------------------------------------------------------

    def _audit(self, event: str, **payload: object) -> None:
        if self.telemetry is not None:
            self.telemetry.increment(f"autocomp.locks.{event}")
        record = {
            "event": event,
            "owner": self.owner,
            "pid": os.getpid(),
            "ts": self._clock(),
            **payload,
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        self._audit_file.write(line.encode("utf-8"))

    def audit_compaction(self, qualified_table: str, version: int | None = None) -> None:
        """Record one rewrite commit against the current lock state.

        Called by the catalog's lock hook on every ``replace`` commit: the
        lock covering the table (held by *any* owner — see
        :meth:`inspect_table`) is looked up and stamped into a
        ``compact_commit`` audit line, which is what lets
        :func:`verify_audit` prove after the fact that every compaction
        ran under a lock and that no (key, context) pair was compacted
        twice.
        """
        info = self.inspect_table(qualified_table)
        self._audit(
            "compact_commit",
            key=qualified_table,
            held=info is not None,
            holder=info.owner if info is not None else None,
            context=info.context if info is not None else None,
            version=version,
        )

    def close(self) -> None:
        """Stop heartbeating, release every lock and remove the holder files.

        The manager stays usable: a later acquire makes new holders.
        """
        self.stop_heartbeat()
        self.release_all()
        with self._mutex:
            _release_holders(
                self._holder_dir, os.getpid(), self._holders, self._free, self._audit_file
            )

    def __enter__(self) -> "LockManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _audit_log(lock_dir: str | os.PathLike) -> tuple[list[dict], list[str]]:
    """The records of a lock directory's audit log and its corrupt lines."""
    return durable.read_jsonl(os.path.join(os.fspath(lock_dir), AUDIT_LOG))


def verify_audit(lock_dir: str | os.PathLike) -> AuditSummary:
    """Replay an audit log and check the no-double-compaction invariants.

    Violations collected:

    * an ``acquire`` while the same key was still held by another owner
      (no intervening ``release``/``reclaim``);
    * a ``release``/``reclaim`` of a key held by a different owner than
      the releaser claims (reclaims are exempt — they name the stale
      owner explicitly);
    * a ``compact_commit`` with ``held == False`` (a rewrite committed
      outside any lock);
    * the same ``(key, context)`` compacted more than once — the
      "never twice for the same trigger" rule (commits with no context
      are exempt: they predate lock-hook coverage);
    * a line that does not parse (a lost record) anywhere but at the
      tail, where an append may still be in flight.
    """
    summary = AuditSummary()
    holder: dict[str, str] = {}
    compacted: dict[tuple, int] = {}
    records, corrupt = _audit_log(lock_dir)
    summary.violations.extend(f"{AUDIT_LOG} {error}" for error in corrupt)
    for record in records:
        summary.events += 1
        event = record.get("event")
        key = record.get("key", "")
        owner = record.get("owner", "")
        if event == "acquire":
            summary.acquires += 1
            if key in holder:
                summary.violations.append(
                    f"acquire of {key!r} by {owner!r} while held by {holder[key]!r}"
                )
            holder[key] = owner
        elif event == "release":
            summary.releases += 1
            current = holder.pop(key, None)
            if current is not None and current != owner:
                summary.violations.append(
                    f"release of {key!r} by {owner!r} but holder was {current!r}"
                )
        elif event == "reclaim":
            summary.reclaims += 1
            holder.pop(key, None)
        elif event == "contend":
            summary.contends += 1
        elif event == "compact_commit":
            summary.compact_commits += 1
            if not record.get("held", False):
                summary.violations.append(f"compaction of {key!r} committed without a lock")
            context = record.get("context")
            if context is not None:
                pair = (key, context)
                compacted[pair] = compacted.get(pair, 0) + 1
    for pair, count in sorted(compacted.items()):
        if count > 1:
            summary.double_compactions["/".join(pair)] = count
            summary.violations.append(
                f"{pair[0]!r} compacted {count}x for trigger {pair[1]!r}"
            )
    return summary
