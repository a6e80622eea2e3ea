"""NameNode: namespace tree, object accounting, and quotas.

The namespace is a flat dict of absolute POSIX-style paths.  Directories are
implicit but *counted*: HDFS charges both files and directories against a
namespace quota, and the paper's §7 weight formula
``w1 = 0.5 × (1 + UsedQuota/TotalQuota)`` depends on that accounting, so we
track it exactly.  Quotas are attached to directory subtrees (one per
database in the OpenHouse deployment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.errors import (
    FileExistsInStorageError,
    FileNotFoundInStorageError,
    QuotaExceededError,
    ValidationError,
)
from repro.units import MiB


def normalize_path(path: str) -> str:
    """Normalise to an absolute path with no trailing slash.

    Raises:
        ValidationError: for empty or relative paths.
    """
    if not path or not path.startswith("/"):
        raise ValidationError(f"paths must be absolute, got {path!r}")
    if "//" not in path and not path.endswith("/"):
        return path  # already normal: the common case on every create
    parts = [part for part in path.split("/") if part]
    return "/" + "/".join(parts)


def parent_directories(path: str) -> list[str]:
    """All ancestor directories of ``path``, excluding root, outermost first.

    ``'/a/b/c.txt'`` -> ``['/a', '/a/b']``.
    """
    parts = [part for part in path.split("/") if part]
    return ["/" + "/".join(parts[:i]) for i in range(1, len(parts))]


class FileInfo(NamedTuple):
    """Metadata for one stored file.

    A named tuple rather than a frozen dataclass: every create builds one,
    so its construction is on the ingest hot path.  Its hash is the one
    the frozen dataclass had, the hash of the tuple of its fields.
    """

    path: str
    size_bytes: int
    created_at: float
    block_size: int

    @property
    def block_count(self) -> int:
        """Number of storage blocks the file occupies (at least one)."""
        if self.size_bytes <= 0:
            return 1
        return math.ceil(self.size_bytes / self.block_size)


@dataclass
class _Quota:
    limit: int
    used: int = 0


@dataclass
class NameNode:
    """Namespace metadata server.

    Attributes:
        block_size: storage block size; files below it are "small" in HDFS
            health metrics (default 128 MiB, the paper's threshold).
    """

    block_size: int = 128 * MiB
    _files: dict[str, FileInfo] = field(default_factory=dict)
    _dirs: set[str] = field(default_factory=set)
    _quotas: dict[str, _Quota] = field(default_factory=dict)
    _total_bytes: int = 0
    #: Directory -> the ``(root, quota)`` pairs whose subtree holds its
    #: entries, in ``_quotas`` order; rebuilt lazily after ``set_quota``.
    _dir_quotas: dict[str, tuple[tuple[str, _Quota], ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    # --- namespace-wide accounting ---------------------------------------------

    @property
    def file_count(self) -> int:
        """Number of files in the namespace."""
        return len(self._files)

    @property
    def directory_count(self) -> int:
        """Number of (implicitly created) directories, excluding root."""
        return len(self._dirs)

    @property
    def total_bytes(self) -> int:
        """Sum of all file sizes."""
        return self._total_bytes

    # --- file operations --------------------------------------------------------

    def create(self, path: str, size_bytes: int, created_at: float) -> FileInfo:
        """Create a file, implicitly creating (and quota-charging) parents.

        The one-file case of :meth:`create_many`.

        Raises:
            FileExistsInStorageError: if the path already exists.
            QuotaExceededError: if any enclosing quota would overflow; the
                namespace is left unchanged in that case.
        """
        directory, _, name = normalize_path(path).rpartition("/")
        return self.create_many(directory or "/", ((name, size_bytes),), created_at)[0]

    def create_many(
        self,
        directory: str,
        entries: Iterable[tuple[str, int]],
        created_at: float,
    ) -> list[FileInfo]:
        """Create the ``(name, size_bytes)`` files in ``directory``, in order.

        The directory is normalised, its new ancestors settled and its
        enclosing quotas looked up once per call; only the existence check
        and the :class:`FileInfo` are per file.  ``entries`` is consumed one
        entry at a time, so a caller may allocate per-file state (such as a
        file id) as each entry is reached.

        A failure part-way leaves exactly what the same sequence of
        :meth:`create` calls leaves: the files before the failing entry
        exist and are charged, and no later entry is read.

        Raises:
            ValidationError: for a negative size or a name that is empty or
                holds a ``/``.
            FileExistsInStorageError: if a path (or an ancestor, as a file)
                already exists.
            QuotaExceededError: if an enclosing quota would overflow.
        """
        directory = normalize_path(directory)
        prefix = "" if directory == "/" else directory
        files = self._files
        dirs = self._dirs
        block_size = self.block_size
        created_at = float(created_at)
        created: list[FileInfo] = []
        quotas: tuple[tuple[str, _Quota], ...] = ()
        room = -1  # files the enclosing quotas still take; -1 until settled
        charged = 0
        added_bytes = 0
        try:
            for name, size_bytes in entries:
                if not name or "/" in name:
                    raise ValidationError(f"file names must be one path segment, got {name!r}")
                path = f"{prefix}/{name}"
                if size_bytes < 0:
                    raise ValidationError(f"file size must be >= 0, got {size_bytes}")
                if path in files or path in dirs:
                    raise FileExistsInStorageError(path)
                if room < 0:
                    quotas = self._settle_directory(path, prefix)
                    room = min((quota.limit - quota.used for _, quota in quotas), default=math.inf)
                elif len(created) >= room:
                    # An enclosing quota is full: charge what this call has
                    # created so far, then fail exactly as a single create.
                    _charge(quotas, len(created) - charged)
                    charged = len(created)
                    self._check_quotas(prefix, [])
                info = FileInfo(path, int(size_bytes), created_at, block_size)
                files[path] = info
                added_bytes += info.size_bytes
                created.append(info)
        finally:
            _charge(quotas, len(created) - charged)
            self._total_bytes += added_bytes
        return created

    def lookup(self, path: str) -> FileInfo:
        """Return the file at ``path``.

        Raises:
            FileNotFoundInStorageError: if absent.
        """
        path = normalize_path(path)
        info = self._files.get(path)
        if info is None:
            raise FileNotFoundInStorageError(path)
        return info

    def exists(self, path: str) -> bool:
        """Whether ``path`` names a file or directory."""
        path = normalize_path(path)
        return path in self._files or path in self._dirs

    def delete(self, path: str) -> FileInfo:
        """Delete a file (directories are never garbage-collected).

        The one-file case of :meth:`delete_many`.

        Raises:
            FileNotFoundInStorageError: if absent.
        """
        return self.delete_many((path,))[0]

    def delete_many(self, paths: Iterable[str]) -> list[FileInfo]:
        """Delete the files at ``paths``, in order.

        Quotas are charged once per parent directory rather than per file.
        A failure part-way leaves exactly what the same sequence of
        :meth:`delete` calls leaves: the files before the failing path are
        gone and uncharged, and no later path is read.

        Raises:
            FileNotFoundInStorageError: if a path names no file (including
                one this call already deleted).
        """
        files = self._files
        deleted: list[FileInfo] = []
        per_parent: dict[str, int] = {}
        try:
            for path in paths:
                path = normalize_path(path)
                info = files.pop(path, None)
                if info is None:
                    raise FileNotFoundInStorageError(path)
                parent = path.rpartition("/")[0]
                per_parent[parent] = per_parent.get(parent, 0) + 1
                deleted.append(info)
        finally:
            for parent, count in per_parent.items():
                _charge(self._enclosing_quotas(parent), -count)
            self._total_bytes -= sum(info.size_bytes for info in deleted)
        return deleted

    def files_under(self, prefix: str = "/") -> list[FileInfo]:
        """All files whose path lies under directory ``prefix``."""
        prefix = normalize_path(prefix)
        if prefix == "/":
            return list(self._files.values())
        needle = prefix + "/"
        return [info for path, info in self._files.items() if path.startswith(needle)]

    def count_under(self, prefix: str = "/") -> int:
        """Number of files under ``prefix`` (cheaper than materialising)."""
        prefix = normalize_path(prefix)
        if prefix == "/":
            return len(self._files)
        needle = prefix + "/"
        return sum(1 for path in self._files if path.startswith(needle))

    # --- quotas -------------------------------------------------------------------

    def set_quota(self, directory: str, max_objects: int) -> None:
        """Attach a namespace-object quota to a directory subtree.

        The quota's ``used`` count is initialised from the current contents
        of the subtree (files + directories strictly below it).
        """
        directory = normalize_path(directory)
        if max_objects <= 0:
            raise ValidationError(f"quota limit must be positive, got {max_objects}")
        needle = "/" if directory == "/" else directory + "/"
        used = sum(1 for p in self._files if p.startswith(needle))
        used += sum(1 for d in self._dirs if d.startswith(needle))
        self._quotas[directory] = _Quota(limit=int(max_objects), used=used)
        self._dir_quotas.clear()

    def quota_usage(self, directory: str) -> tuple[int, int]:
        """``(used, limit)`` for the quota on ``directory``.

        Raises:
            ValidationError: if no quota is set there.
        """
        directory = normalize_path(directory)
        quota = self._quotas.get(directory)
        if quota is None:
            raise ValidationError(f"no quota set on {directory!r}")
        return quota.used, quota.limit

    def quota_covers(self, directory: str) -> bool:
        """Whether a quota charges entries created under ``directory``: one
        is set on it, on an ancestor or on a directory below it."""
        if not self._quotas:
            return False
        directory = normalize_path(directory)
        if self._enclosing_quotas("" if directory == "/" else directory):
            return True
        inside = directory + "/"
        return any(root.startswith(inside) for root in self._quotas)

    def check_room(self, counts: dict[str, int]) -> None:
        """Raise unless every quota takes ``counts[directory]`` new files in
        each directory plus the missing directories they need.

        Changes nothing, so a writer that calls it once before its first
        create (an LST commit) fails before it creates anything.

        Raises:
            QuotaExceededError: for the first quota without room.
        """
        entries: dict[str, int] = {}  # parent directory -> new entries in it
        new_dirs: set[str] = set()
        for directory, count in counts.items():
            directory = normalize_path(directory)
            prefix = "" if directory == "/" else directory
            entries[prefix] = entries.get(prefix, 0) + count
            if prefix and prefix not in self._dirs:
                for ancestor in parent_directories(prefix + "/_"):
                    if ancestor not in self._dirs and ancestor not in new_dirs:
                        new_dirs.add(ancestor)
                        parent = ancestor.rpartition("/")[0]
                        entries[parent] = entries.get(parent, 0) + 1
        need: dict[str, int] = {}
        for parent, count in entries.items():
            for root, _ in self._enclosing_quotas(parent):
                need[root] = need.get(root, 0) + count
        for root, count in need.items():
            quota = self._quotas[root]
            if quota.used + count > quota.limit:
                raise QuotaExceededError(root, quota.used, quota.limit)

    def _enclosing_quotas(self, parent: str) -> tuple[tuple[str, _Quota], ...]:
        """Quotas charged for an entry of directory ``parent`` (``""``: root)."""
        enclosing = self._dir_quotas.get(parent)
        if enclosing is None:
            inside = parent + "/"
            enclosing = tuple(
                (directory, quota)
                for directory, quota in self._quotas.items()
                if inside.startswith("/" if directory == "/" else directory + "/")
            )
            self._dir_quotas[parent] = enclosing
        return enclosing

    def _settle_directory(self, path: str, parent: str) -> tuple[tuple[str, _Quota], ...]:
        """Make ``parent`` ready to take ``path``: check and add its missing
        ancestors, charging them; return the quotas enclosing ``parent``.

        Raises:
            FileExistsInStorageError: if an ancestor of ``path`` is a file.
            QuotaExceededError: if the new directories plus ``path`` would
                overflow a quota; nothing is changed then.
        """
        if parent in self._dirs:
            # The directory set is closed under ancestors and no directory
            # ever sits below a file, so a known parent means no new
            # directories and no file-valued ancestor.
            return self._check_quotas(parent, [])
        ancestors = parent_directories(path)
        for ancestor in ancestors:
            if ancestor in self._files:
                raise FileExistsInStorageError(f"{path}: ancestor {ancestor!r} is a file")
        new_dirs = [d for d in ancestors if d not in self._dirs]
        quotas = self._check_quotas(parent, new_dirs)
        for directory in new_dirs:
            self._dirs.add(directory)
            _charge(self._enclosing_quotas(directory.rpartition("/")[0]), 1)
        return quotas

    def _check_quotas(
        self, parent: str, new_dirs: list[str]
    ) -> tuple[tuple[str, _Quota], ...]:
        """Raise unless every quota enclosing ``parent`` takes one new entry
        plus ``new_dirs``; return those quotas.

        Every new directory is an ancestor of the entry, so only the quotas
        enclosing ``parent`` can absorb any.
        """
        quotas = self._enclosing_quotas(parent)
        for directory, quota in quotas:
            needle = "/" if directory == "/" else directory + "/"
            added = 1 + sum(1 for d in new_dirs if d.startswith(needle))
            if quota.used + added > quota.limit:
                raise QuotaExceededError(directory, quota.used, quota.limit)
        return quotas


def _charge(quotas: tuple[tuple[str, _Quota], ...], delta: int) -> None:
    if delta:
        for _, quota in quotas:
            quota.used += delta
