"""Base table: transactions, optimistic concurrency, and conflict semantics.

This module implements the commit protocol shared by both format profiles.
A transaction captures the table's metadata version when it *starts*; at
commit time, if other transactions committed in between, validation decides
whether the commit can proceed — and validation is where the two format
profiles (Iceberg-like, Delta-like) differ, expressed as a
:class:`ConflictSemantics` value rather than subclass spaghetti.

Conflicts carry a *side* matching the paper's Table 1:

* ``client`` — a user write (append / overwrite / row-delta) terminated by a
  versioning conflict; engines retry these;
* ``cluster`` — a compaction (rewrite) aborted on the maintenance cluster;
  AutoComp treats these as lost work.

The Iceberg-v1.2.0 profile reproduces the counterintuitive behaviour the
paper reports in §4.4: two concurrent rewrites conflict *even when they
target distinct partitions*, which is why AutoComp's hybrid scheduler runs
partition-level compactions sequentially per table.

Each table keeps one partition index for its head snapshot, read by
candidate generation (:meth:`BaseTable.partitions`), partition-scope
observation and rewrite planning (:meth:`BaseTable.files_in_partitions`).
Commits never touch it.  A read that finds it behind the head replays
the deltas of the snapshots committed since the indexed one, so a cycle
pays for what changed rather than for every live file; when that chain
is broken (first use, expiry of an unread snapshot, ``restore_state``)
or longer than the head's live set, the read rebuilds it from the head's
files instead.  Each update is published copy-on-write as one
``(snapshot_id, index)`` tuple, so concurrent readers never see a
half-applied delta and a group once handed out never changes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import groupby, islice
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from repro.errors import CommitConflictError, ValidationError
from repro.lst.files import DataFile, DeleteFile, FileContent
from repro.lst.partitioning import PartitionSpec
from repro.lst.schema import Schema
from repro.lst.snapshot import (
    PartitionIndex,
    Snapshot,
    group_by_partition,
    select_partitions,
)
from repro.simulation.clock import SimClock
from repro.simulation.telemetry import Telemetry
from repro.storage.filesystem import SimulatedFileSystem
from repro.units import DEFAULT_TARGET_FILE_SIZE, SMALL_FILE_THRESHOLD

#: Assumed average row width used when writers do not supply record counts.
DEFAULT_ROW_BYTES = 128

_tuple_new = tuple.__new__
_DATA = FileContent.DATA
_NO_REFERENCES: frozenset[int] = frozenset()


@dataclass(frozen=True)
class TableIdentifier:
    """Fully qualified table name (``database.table``)."""

    database: str
    name: str

    def __post_init__(self) -> None:
        if not self.database or not self.name:
            raise ValidationError("database and table name must be non-empty")
        if "." in self.database or "." in self.name:
            raise ValidationError("database/table names must not contain '.'")

    @classmethod
    def parse(cls, qualified: str) -> "TableIdentifier":
        """Parse ``'db.table'`` into an identifier."""
        database, sep, name = qualified.partition(".")
        if not sep:
            raise ValidationError(f"expected 'db.table', got {qualified!r}")
        return cls(database, name)

    def __str__(self) -> str:
        return f"{self.database}.{self.name}"


@dataclass(frozen=True)
class ConflictSemantics:
    """Format-specific commit-validation rules.

    Each flag enables one conflict check applied when a transaction commits
    against a table version newer than the one it started from.
    """

    #: Appends fail (once; a retry with fresh metadata succeeds) when a
    #: rewrite committed concurrently — the stale-metadata client conflicts
    #: the paper observes when compaction races user writes.
    append_fails_on_concurrent_rewrite: bool = True
    #: Overwrites fail when any concurrent commit touched the same partition.
    overwrite_fails_on_same_partition_commit: bool = True
    #: Row-deltas (MoR deletes) fail when a referenced data file vanished.
    rowdelta_fails_on_reference_removed: bool = True
    #: Rewrites fail when any concurrent rewrite committed — regardless of
    #: partition overlap.  True reproduces the Iceberg v1.2.0 quirk (§4.4).
    rewrite_fails_on_concurrent_rewrite_any_partition: bool = True
    #: Rewrites fail when a concurrent *write* touched a partition they
    #: rewrite (in addition to the always-on source-file liveness check).
    rewrite_fails_on_same_partition_write: bool = True

    @classmethod
    def iceberg_v1_2(cls) -> "ConflictSemantics":
        """Semantics observed with Apache Iceberg v1.2.0 in the paper."""
        return cls()

    @classmethod
    def delta_v2_4(cls) -> "ConflictSemantics":
        """Delta-Lake-like file-granularity semantics.

        Disjoint rewrites commit concurrently, and appends never conflict
        with OPTIMIZE; only genuine file-set overlaps abort.
        """
        return cls(
            append_fails_on_concurrent_rewrite=False,
            overwrite_fails_on_same_partition_commit=True,
            rowdelta_fails_on_reference_removed=True,
            rewrite_fails_on_concurrent_rewrite_any_partition=False,
            rewrite_fails_on_same_partition_write=False,
        )


@dataclass(frozen=True)
class ScanPlan:
    """Result of planning a read: which files a query must touch."""

    files: tuple[DataFile, ...]
    delete_files: tuple[DeleteFile, ...]
    manifests_read: int

    @property
    def file_count(self) -> int:
        """Number of data files scanned."""
        return len(self.files)

    @property
    def total_bytes(self) -> int:
        """Total data bytes scanned."""
        return sum(f.size_bytes for f in self.files)

    @property
    def delete_bytes(self) -> int:
        """Total delete-file bytes that must be merged at read time."""
        return sum(f.size_bytes for f in self.delete_files)


class _PendingFile(NamedTuple):
    """A file staged by a transaction, materialised at commit.

    A named tuple rather than a frozen dataclass: writers stage every file
    through :meth:`Transaction.add_file`, so its construction is on the
    ingest hot path.  ``add_file`` builds it with ``tuple.__new__`` and
    all five fields, skipping the generated ``__new__``.
    """

    size_bytes: int
    record_count: int
    partition: tuple
    content: FileContent = FileContent.DATA
    references: frozenset[int] = frozenset()


class _CommitRecord(NamedTuple):
    """Internal log entry used for conflict validation.

    A named tuple, like the file records: one is logged per commit.
    """

    version: int
    snapshot_id: int
    operation: str
    partitions: frozenset
    removed_file_ids: frozenset
    is_rewrite: bool
    timestamp: float


def _replay(index: PartitionIndex, chain: list[Snapshot]) -> PartitionIndex:
    """``index`` advanced through ``chain``'s commits, oldest first.

    Returns a new index that shares every untouched group with ``index``;
    ``index`` itself is left as it was.
    """
    gone: dict[int, tuple] = {}
    added: list[DataFile] = []
    for snap in chain:
        summary = snap.summary
        for f in snap.removed[: summary["removed-data-files"]]:
            gone[f.file_id] = f.partition
        # New ids exceed every live id, so a commit's additions are the
        # last entries of its id-ordered map.
        fresh = list(islice(reversed(snap.files.values()), summary["added-data-files"]))
        fresh.reverse()
        added.extend(fresh)
    groups = group_by_partition(f for f in added if f.file_id not in gone)
    shrunk = set(gone.values())
    index = dict(index)
    for partition in shrunk.union(groups):
        files = index.get(partition, ())
        if partition in shrunk:
            files = tuple(f for f in files if f.file_id not in gone)
        files += groups.get(partition, ())
        if files:
            index[partition] = files
        else:
            index.pop(partition, None)
    return index


def _not_live(live: dict[int, DataFile], files: list[DataFile]) -> list[DataFile]:
    """The ``files`` that are not the live file holding their id."""
    # Staged files are usually the live objects themselves: test identity
    # before paying for the field-by-field tuple equality.
    return [f for f in files if (g := live.get(f.file_id)) is not f and g != f]


class Transaction:
    """An in-flight optimistic transaction against one table.

    Instances are created by the table's ``new_*`` factory methods; callers
    stage changes then :meth:`commit`.  A transaction is single-use: after
    commit or abort it cannot be reused.
    """

    #: Iceberg operation label; also selects validation rules.
    operation = "append"
    #: Which Table-1 column a conflict on this operation lands in.
    conflict_side = "client"

    def __init__(self, table: "BaseTable") -> None:
        self._table = table
        self.base_version = table._version
        self._pending: list[_PendingFile] = []
        self._removed: list[DataFile] = []
        self._sources: list[DataFile] = []
        self._done = False

    # --- staging -------------------------------------------------------------

    def add_file(
        self,
        size_bytes: int,
        partition: tuple = (),
        record_count: int | None = None,
    ) -> None:
        """Stage a new data file of ``size_bytes`` in ``partition``.

        Raises:
            ValidationError: for a negative size or record count, or once
                the transaction has committed or aborted.
        """
        if self._done:
            raise ValidationError("transaction already committed or aborted")
        if size_bytes < 0:
            raise ValidationError(f"file size must be >= 0, got {size_bytes}")
        size = int(size_bytes)
        if record_count is None:
            records = size // DEFAULT_ROW_BYTES or 1
        else:
            records = int(record_count)
            if records < 0:
                # Rejected here, not by DataFile at commit: by then part of
                # the storage batch would already exist.
                raise ValidationError(f"record count must be >= 0, got {record_count}")
        if type(partition) is not tuple:
            partition = tuple(partition)
        self._pending.append(
            _tuple_new(_PendingFile, (size, records, partition, _DATA, _NO_REFERENCES))
        )

    # --- lifecycle -------------------------------------------------------------

    def commit(self) -> Snapshot:
        """Validate and apply the transaction.

        Returns:
            The snapshot produced by this commit.

        Raises:
            CommitConflictError: if validation against concurrent commits
                fails; the transaction is consumed either way.
        """
        self._check_open()
        self._done = True
        return self._table._commit_transaction(self)

    def abort(self) -> None:
        """Discard the transaction without committing."""
        self._done = True

    def _check_open(self) -> None:
        if self._done:
            raise ValidationError("transaction already committed or aborted")

    # --- hooks used by the table during commit ------------------------------------

    def _touched_partitions(self) -> frozenset:
        parts = {f.partition for f in self._pending}
        parts.update(f.partition for f in self._removed)
        parts.update(f.partition for f in self._sources)
        return frozenset(parts)


class AppendTransaction(Transaction):
    """Add new data files; never removes anything."""

    operation = "append"
    conflict_side = "client"


class OverwriteTransaction(Transaction):
    """Replace specific existing files with new ones (copy-on-write update)."""

    operation = "overwrite"
    conflict_side = "client"

    def delete_file(self, data_file: DataFile) -> None:
        """Stage removal of an existing live data file."""
        self._check_open()
        self._removed.append(data_file)


class RowDeltaTransaction(Transaction):
    """Add merge-on-read position-delete files (and optionally new data)."""

    operation = "rowdelta"
    conflict_side = "client"

    def add_deletes(
        self,
        size_bytes: int,
        references: list[DataFile],
        record_count: int | None = None,
    ) -> None:
        """Stage a position-delete file covering rows of ``references``."""
        self._check_open()
        if not references:
            raise ValidationError("a delete file must reference at least one data file")
        if size_bytes < 0:
            raise ValidationError(f"file size must be >= 0, got {size_bytes}")
        partition = references[0].partition
        records = record_count if record_count is not None else max(
            1, size_bytes // DEFAULT_ROW_BYTES
        )
        if records < 0:
            raise ValidationError(f"record count must be >= 0, got {record_count}")
        self._pending.append(
            _PendingFile(
                int(size_bytes),
                int(records),
                partition,
                content=FileContent.POSITION_DELETES,
                references=frozenset(f.file_id for f in references),
            )
        )


class RewriteTransaction(Transaction):
    """Compaction: replace source files with fewer, larger outputs."""

    operation = "replace"
    conflict_side = "cluster"

    def rewrite(self, sources: list[DataFile], output_sizes: list[int]) -> None:
        """Stage one rewrite group.

        Args:
            sources: live data files to replace (all in one partition).
            output_sizes: sizes of the replacement files; their sum should
                equal the sources' total (validated).
        """
        self._check_open()
        if not sources:
            raise ValidationError("rewrite group needs at least one source file")
        partitions = {f.partition for f in sources}
        if len(partitions) != 1:
            raise ValidationError(
                f"rewrite group must stay within one partition, got {sorted(partitions)}"
            )
        for size in output_sizes:
            if size <= 0:
                raise ValidationError(f"output sizes must be positive, got {size}")
        total_in = sum(f.size_bytes for f in sources)
        total_out = sum(output_sizes)
        if total_out != total_in:
            raise ValidationError(
                f"rewrite must preserve bytes: in={total_in} out={total_out}"
            )
        partition = next(iter(partitions))
        records = sum(f.record_count for f in sources)
        self._sources.extend(sources)
        remaining_records = records
        for i, size in enumerate(output_sizes):
            share = (
                remaining_records
                if i == len(output_sizes) - 1
                else int(records * size / total_in)
            )
            remaining_records -= share
            self._pending.append(_PendingFile(int(size), max(share, 0), partition))


class BaseTable(abc.ABC):
    """A log-structured table: snapshots + optimistic transactions.

    Subclasses supply the metadata-file layout (:meth:`_write_commit_metadata`)
    and default :class:`ConflictSemantics`.

    Args:
        identifier: qualified table name.
        schema: column definitions; partition sources are validated against it.
        spec: partition spec (default unpartitioned).
        fs: backing filesystem; a private one is created if omitted.
        location: storage root; defaults to ``/data/<db>/<table>``.
        properties: free-form table properties.  Recognised keys:
            ``write.target-file-size-bytes`` (default 512 MiB) and
            ``snapshot.retention-s`` (default 0.0 — rewrites may be
            physically cleaned immediately).
        telemetry: metric sink (falls back to the filesystem's).
        clock: simulated clock (falls back to the filesystem's).
    """

    format_name = "base"

    def __init__(
        self,
        identifier: TableIdentifier,
        schema: Schema,
        spec: PartitionSpec | None = None,
        fs: SimulatedFileSystem | None = None,
        location: str | None = None,
        properties: dict[str, object] | None = None,
        telemetry: Telemetry | None = None,
        clock: SimClock | None = None,
        conflict_semantics: ConflictSemantics | None = None,
    ) -> None:
        self.identifier = identifier
        self.schema = schema
        self.spec = spec if spec is not None else PartitionSpec.unpartitioned()
        for part_field in self.spec.fields:
            if not schema.has_field(part_field.source):
                raise ValidationError(
                    f"partition source {part_field.source!r} not in schema"
                )
        self.fs = fs if fs is not None else SimulatedFileSystem()
        self.clock = clock if clock is not None else self.fs.clock
        self.telemetry = telemetry if telemetry is not None else self.fs.telemetry
        self.location = location or f"/data/{identifier.database}/{identifier.name}"
        self.properties: dict[str, object] = dict(properties or {})
        self.conflict_semantics = (
            conflict_semantics
            if conflict_semantics is not None
            else self._default_conflict_semantics()
        )
        self.created_at = self.clock.now
        self.last_modified_at = self.clock.now

        self._version = 0
        self._snapshots: dict[int, Snapshot] = {}
        self._current_id: int | None = None
        self._commit_log: list[_CommitRecord] = []
        self._next_file_id = 1
        self._next_snapshot_id = 1
        self._partition_last_modified: dict[tuple, float] = {}
        #: ``(snapshot_id, index)``: the head partition index as of the
        #: snapshot it was last brought up to date at (None: never built).
        self._head_index: tuple[int | None, PartitionIndex] = (None, {})
        #: Observers invoked after every successful commit with
        #: ``(table, operation, added_data, added_deletes, removed_ids)``.
        #: The catalog installs one to publish ``table_commit`` trace events;
        #: aborted/conflicted transactions never reach a hook.
        self.commit_hooks: list = []

    # --- format hooks -----------------------------------------------------------

    @abc.abstractmethod
    def _default_conflict_semantics(self) -> ConflictSemantics:
        """Format-default conflict rules."""

    @abc.abstractmethod
    def _write_commit_metadata(
        self,
        snapshot_id: int,
        version: int,
        added: int,
        removed: int,
        parent: Snapshot | None,
        operation: str,
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Write format-specific metadata files for a commit.

        Returns:
            ``(manifest_paths, exclusive_paths)``: manifests reachable from
            the new snapshot (drives planning cost; may be shared with
            other snapshots), and metadata files owned solely by this
            snapshot (physically deleted when it expires).
        """

    def _metadata_files(self, version: int) -> tuple[str, int]:
        """``(directory, count)``: the metadata files
        :meth:`_write_commit_metadata` creates for ``version``, counted by
        the quota room check before a commit creates anything.  Every
        built-in format overrides it; the default counts none."""
        return self.location, 0

    # --- properties -----------------------------------------------------------------

    @property
    def version(self) -> int:
        """Metadata version; increments with every commit."""
        return self._version

    @property
    def target_file_size(self) -> int:
        """Compaction target size for this table (512 MiB default)."""
        return int(
            self.properties.get("write.target-file-size-bytes", DEFAULT_TARGET_FILE_SIZE)
        )

    @property
    def snapshot_retention_s(self) -> float:
        """How long expired snapshots' files are retained before cleanup."""
        return float(self.properties.get("snapshot.retention-s", 0.0))

    def current_snapshot(self) -> Snapshot | None:
        """The latest snapshot, or None for a never-written table."""
        if self._current_id is None:
            return None
        return self._snapshots[self._current_id]

    def snapshot(self, snapshot_id: int) -> Snapshot:
        """Look up a snapshot by id.

        Raises:
            ValidationError: if unknown (possibly already expired).
        """
        snap = self._snapshots.get(snapshot_id)
        if snap is None:
            raise ValidationError(f"unknown snapshot {snapshot_id}")
        return snap

    def snapshots(self) -> list[Snapshot]:
        """All retained snapshots, oldest first."""
        # Commits insert in sequence order and expiry only drops a prefix.
        return list(self._snapshots.values())

    def history(self) -> list[tuple[float, int, str]]:
        """``(timestamp, snapshot_id, operation)`` per commit, oldest first."""
        return [(r.timestamp, r.snapshot_id, r.operation) for r in self._commit_log]

    # --- convenience metrics ------------------------------------------------------

    @property
    def data_file_count(self) -> int:
        """Live data files in the current snapshot."""
        snap = self.current_snapshot()
        return snap.data_file_count if snap else 0

    @property
    def delete_file_count(self) -> int:
        """Live MoR delete files in the current snapshot."""
        snap = self.current_snapshot()
        return snap.delete_file_count if snap else 0

    @property
    def total_data_bytes(self) -> int:
        """Bytes across live data files."""
        snap = self.current_snapshot()
        return snap.total_data_bytes if snap else 0

    def live_files(self) -> list[DataFile]:
        """Live data files (empty list for a never-written table)."""
        snap = self.current_snapshot()
        return list(snap.ordered_files) if snap else []

    def partitions(self) -> list[tuple]:
        """Distinct partitions with live files, sorted."""
        return sorted(self._partition_index())

    def files_in_partitions(self, partitions) -> list[DataFile]:
        """Live data files belonging to any of ``partitions``, in id order."""
        return select_partitions(self._partition_index(), partitions)

    def _partition_index(self) -> PartitionIndex:
        """The head snapshot's live data files by partition, up to date."""
        head = self.current_snapshot()
        if head is None:
            return {}
        indexed_id, index = self._head_index
        if indexed_id == head.snapshot_id:
            return index
        chain = self._chain_after(indexed_id, head)
        index = (
            group_by_partition(head.files.values()) if chain is None else _replay(index, chain)
        )
        # One tuple store: a concurrent reader sees the old pair or the
        # new one, and either is a correct index for its snapshot id.
        self._head_index = (head.snapshot_id, index)
        return index

    def _chain_after(self, indexed_id: int | None, head: Snapshot) -> list[Snapshot] | None:
        """The retained snapshots after ``indexed_id`` up to ``head``, oldest first.

        None when the chain is broken (no index yet, or a link expired)
        or replaying it would touch more files than rebuilding from the
        head's live set.
        """
        if indexed_id is None:
            return None
        chain: list[Snapshot] = []
        work = 0
        snap: Snapshot | None = head
        while snap is not None:
            chain.append(snap)
            summary = snap.summary
            work += summary.get("added-data-files", 0) + summary.get("removed-data-files", 0)
            if work > len(head.files):
                return None
            if snap.parent_id == indexed_id:
                chain.reverse()
                return chain
            snap = self._snapshots.get(snap.parent_id)
        return None

    def small_file_count(self, threshold: int = SMALL_FILE_THRESHOLD) -> int:
        """Live data files below ``threshold`` bytes."""
        snap = self.current_snapshot()
        if snap is None:
            return 0
        return sum(1 for f in snap.live_files if f.size_bytes < threshold)

    def partition_last_modified(self, partition: tuple) -> float:
        """Last *user-write* commit time touching ``partition``.

        Falls back to the table creation time for never-written partitions.
        Partition-scope write-activity filters read this — it is what lets
        the hybrid strategy skip hot partitions and avoid the cluster-side
        conflicts table-scope compaction cannot dodge (Table 1).
        """
        return self._partition_last_modified.get(partition, self.created_at)

    # --- transactions ------------------------------------------------------------------

    def new_append(self) -> AppendTransaction:
        """Start an append transaction."""
        return AppendTransaction(self)

    def new_overwrite(self) -> OverwriteTransaction:
        """Start a copy-on-write overwrite transaction."""
        return OverwriteTransaction(self)

    def new_row_delta(self) -> RowDeltaTransaction:
        """Start a merge-on-read row-delta transaction."""
        return RowDeltaTransaction(self)

    def new_rewrite(self) -> RewriteTransaction:
        """Start a rewrite (compaction) transaction."""
        return RewriteTransaction(self)

    # --- scanning ------------------------------------------------------------------------

    def scan(self, partitions: list[tuple] | None = None) -> ScanPlan:
        """Plan a read of the current snapshot.

        Args:
            partitions: restrict to these partition tuples (None = full scan).

        Returns:
            A :class:`ScanPlan`; empty if the table has no snapshot.
        """
        snap = self.current_snapshot()
        if snap is None:
            return ScanPlan(files=(), delete_files=(), manifests_read=0)
        if partitions is None:
            files = snap.ordered_files
        else:
            files = tuple(self.files_in_partitions(partitions))
        file_ids = {f.file_id for f in files}
        deletes = tuple(
            sorted(
                (d for d in snap.delete_files if d.references & file_ids),
                key=lambda d: d.file_id,
            )
        )
        return ScanPlan(files=files, delete_files=deletes, manifests_read=len(snap.manifest_paths))

    # --- commit protocol ------------------------------------------------------------------

    def _commit_transaction(self, txn: Transaction) -> Snapshot:
        touched = txn._touched_partitions()
        self._validate(txn, touched)

        parent = self.current_snapshot()
        # Runs of same-partition files: the room check and creates share them.
        runs = ((self._partition_directory(partition), run)
                for partition, run in groupby(txn._pending, key=attrgetter("partition")))
        if self.fs.namenode.quota_covers(self.location):
            runs = [(directory, list(run)) for directory, run in runs]
            self._check_room(runs)
        added_data, added_deletes = self._materialize(runs)

        # Copy-then-patch: the C-level dict copy never hashes a file, and
        # the Python work is one pop per removed file and one insert per
        # added one.  New ids exceed every live id, so inserting at the end
        # keeps the map in id order.
        files = parent.files.copy() if parent else {}
        removed: list[DataFile | DeleteFile] = []
        for f in txn._removed + txn._sources:
            gone = files.pop(f.file_id, None)
            if gone is not None:
                removed.append(gone)
        for f in added_data:
            files[f.file_id] = f
        removed_ids = frozenset(f.file_id for f in removed)

        # Delete files whose referenced data files were all removed are
        # dropped (a rewrite applies MoR deletes); others carry forward.
        deletes = parent.deletes.copy() if parent else {}
        dropped = 0
        if deletes:
            for d in list(deletes.values()):
                if not any(ref in files for ref in d.references):
                    removed.append(deletes.pop(d.file_id))
                    dropped += 1
        for d in added_deletes:
            deletes[d.file_id] = d

        snapshot_id = self._next_snapshot_id
        self._next_snapshot_id += 1
        version = self._version + 1
        manifest_paths, exclusive_paths = self._write_commit_metadata(
            snapshot_id,
            version,
            added=len(added_data) + len(added_deletes),
            removed=len(removed_ids),
            parent=parent,
            operation=txn.operation,
        )
        snapshot = Snapshot(
            snapshot_id=snapshot_id,
            parent_id=parent.snapshot_id if parent else None,
            sequence_number=version,
            timestamp=self.clock.now,
            operation=txn.operation,
            files=files,
            deletes=deletes,
            manifest_paths=manifest_paths,
            exclusive_metadata_paths=exclusive_paths,
            summary={
                "added-data-files": len(added_data),
                "added-delete-files": len(added_deletes),
                "removed-data-files": len(removed_ids),
                "dropped-delete-files": dropped,
                "total-data-files": len(files),
            },
            removed=tuple(removed),
        )
        self._snapshots[snapshot_id] = snapshot
        self._current_id = snapshot_id
        self._version = version
        self._commit_log.append(
            _CommitRecord(
                version,
                snapshot_id,
                txn.operation,
                touched,
                removed_ids,
                txn.operation == "replace",
                self.clock.now,
            )
        )
        self.last_modified_at = self.clock.now
        if txn.operation != "replace":
            # Rewrites are maintenance, not user writes: they must not make
            # a partition look "hot" to write-activity filters.
            for partition in touched:
                self._partition_last_modified[partition] = self.clock.now
        self.telemetry.increment(f"lst.commits.{txn.operation}")
        if self.commit_hooks:
            for hook in list(self.commit_hooks):
                hook(self, txn.operation, added_data, added_deletes, removed_ids)
        return snapshot

    # --- replay support -----------------------------------------------------------

    def restore_state(
        self,
        *,
        version: int,
        next_file_id: int,
        next_snapshot_id: int,
        current_snapshot_id: int | None,
        created_at: float,
        last_modified_at: float,
        files: list[tuple[int, tuple, int]],
        deletes: list[tuple[int, tuple, int, frozenset[int]]] = (),
        partition_mtimes: dict[tuple, float] | None = None,
    ) -> None:
        """Load a checkpointed live-file layout directly, bypassing commits.

        The Policy Lab's catalog traces rotate on *checkpoints* — frozen
        per-table layouts — so a replayer can reconstruct mid-history state
        without the events that produced it.  Restoration recreates every
        live data/delete file on the filesystem (same deterministic paths
        as :meth:`_materialize`) under a single synthetic snapshot and pins
        the version/file-id/snapshot-id counters to the checkpointed
        values, so commits replayed *after* the checkpoint allocate exactly
        the ids the source run allocated.  Snapshot history before the
        checkpoint is not reconstructed (it is unreachable from a trace
        window); only the live layout and the counters matter for replay.

        Raises:
            ValidationError: when called on a table that already has commits.
        """
        if self._version != 0 or self._snapshots:
            raise ValidationError("restore_state requires a freshly created table")
        # One storage batch per run of consecutive same-partition files.
        data_files: list[DataFile] = []
        for partition, run in groupby(files, key=lambda f: tuple(f[1])):
            directory = self._partition_directory(partition)
            run = list(run)
            self.fs.create_files(
                directory, [(f"part-{file_id:08d}.parquet", size) for file_id, _, size in run]
            )
            data_files.extend(
                DataFile(
                    int(file_id),
                    f"{directory}/part-{file_id:08d}.parquet",
                    int(size_bytes),
                    max(1, int(size_bytes) // DEFAULT_ROW_BYTES),
                    partition,
                )
                for file_id, _, size_bytes in run
            )
        delete_files: list[DeleteFile] = []
        for partition, run in groupby(deletes, key=lambda d: tuple(d[1])):
            directory = self._partition_directory(partition)
            run = list(run)
            self.fs.create_files(
                directory, [(f"delete-{file_id:08d}.parquet", size) for file_id, _, size, _ in run]
            )
            delete_files.extend(
                DeleteFile(
                    int(file_id),
                    f"{directory}/delete-{file_id:08d}.parquet",
                    int(size_bytes),
                    max(1, int(size_bytes) // DEFAULT_ROW_BYTES),
                    partition,
                    frozenset(int(r) for r in references),
                )
                for file_id, _, size_bytes, references in run
            )
        self._version = int(version)
        self._next_file_id = int(next_file_id)
        self._next_snapshot_id = int(next_snapshot_id)
        self.created_at = float(created_at)
        self.last_modified_at = float(last_modified_at)
        self._partition_last_modified = {
            tuple(partition): float(t) for partition, t in (partition_mtimes or {}).items()
        }
        if current_snapshot_id is not None:
            snapshot = Snapshot(
                snapshot_id=int(current_snapshot_id),
                parent_id=None,
                sequence_number=self._version,
                timestamp=self.last_modified_at,
                operation="checkpoint",
                files={f.file_id: f for f in sorted(data_files, key=lambda f: f.file_id)},
                deletes={d.file_id: d for d in sorted(delete_files, key=lambda d: d.file_id)},
                manifest_paths=(),
                exclusive_metadata_paths=(),
                summary={"total-data-files": len(data_files)},
            )
            self._snapshots[snapshot.snapshot_id] = snapshot
            self._current_id = snapshot.snapshot_id

    def _validate(self, txn: Transaction, touched: frozenset) -> None:
        if len({f.file_id for f in txn._sources}) != len(txn._sources):
            # Rewriting a source twice would double its bytes in the output.
            raise ValidationError("a rewrite source file is staged more than once")
        snap = self.current_snapshot()
        live = snap.files if snap else {}
        # A restored table's log starts at its checkpointed version.
        logged_from = self._version - len(self._commit_log)
        concurrent = self._commit_log[max(txn.base_version - logged_from, 0) :]
        if not concurrent:
            # Nothing committed since the transaction started, so every
            # file it removes must be live *here* — a file of another table
            # (or one already gone) would otherwise evict whichever live
            # file shares its id and, for a rewrite, invent bytes.
            stale = _not_live(live, txn._removed + txn._sources)
            if stale:
                raise ValidationError(
                    f"{len(stale)} file(s) to remove are not live in {self.identifier}"
                )
            return
        sem = self.conflict_semantics

        def overlapping(records: list[_CommitRecord]) -> bool:
            return any(r.partitions & touched for r in records)

        if txn.operation == "append":
            if sem.append_fails_on_concurrent_rewrite and any(
                r.is_rewrite for r in concurrent
            ):
                self._count_conflict(txn)
                raise CommitConflictError(
                    "client", "append against metadata invalidated by concurrent rewrite"
                )
            self.telemetry.increment("lst.commit.refreshes")
            return

        if txn.operation in ("overwrite", "delete"):
            missing = _not_live(live, txn._removed)
            if missing:
                self._count_conflict(txn)
                raise CommitConflictError(
                    "client",
                    f"{len(missing)} file(s) to overwrite were removed concurrently",
                )
            if sem.overwrite_fails_on_same_partition_commit and overlapping(concurrent):
                self._count_conflict(txn)
                raise CommitConflictError(
                    "client", "concurrent commit touched an overwritten partition"
                )
            return

        if txn.operation == "rowdelta":
            if sem.rowdelta_fails_on_reference_removed:
                referenced = frozenset().union(
                    *(p.references for p in txn._pending if p.references)
                ) if txn._pending else frozenset()
                if any(ref not in live for ref in referenced):
                    self._count_conflict(txn)
                    raise CommitConflictError(
                        "client", "data files referenced by deletes were removed"
                    )
            return

        if txn.operation == "replace":
            missing = _not_live(live, txn._sources)
            if missing:
                self._count_conflict(txn)
                raise CommitConflictError(
                    "cluster",
                    f"{len(missing)} rewrite source file(s) removed by concurrent commit",
                )
            if sem.rewrite_fails_on_concurrent_rewrite_any_partition and any(
                r.is_rewrite for r in concurrent
            ):
                self._count_conflict(txn)
                raise CommitConflictError(
                    "cluster",
                    "concurrent rewrite committed (conflicts even across distinct "
                    "partitions in this format profile)",
                )
            if sem.rewrite_fails_on_same_partition_write and overlapping(
                [r for r in concurrent if not r.is_rewrite]
            ):
                self._count_conflict(txn)
                raise CommitConflictError(
                    "cluster", "concurrent write touched a partition being rewritten"
                )
            return

        raise ValidationError(f"unknown operation {txn.operation!r}")

    def _count_conflict(self, txn: Transaction) -> None:
        self.telemetry.increment(f"lst.conflicts.{txn.conflict_side}")

    def _partition_directory(self, partition: tuple) -> str:
        """Storage directory holding a partition's data and delete files."""
        partition_dir = self.spec.partition_path(partition)
        return f"{self.location}/data/{partition_dir}" if partition_dir else f"{self.location}/data"

    def _check_room(self, runs: list[tuple[str, list[_PendingFile]]]) -> None:
        """Fail a commit before its first create unless every quota takes
        its data and delete files, its metadata files and the directories
        they need; a commit rejected part-way would leave orphans charged
        against the quota."""
        counts: dict[str, int] = {}
        for directory, run in runs:
            counts[directory] = counts.get(directory, 0) + len(run)
        directory, count = self._metadata_files(self._version + 1)
        counts[directory] = counts.get(directory, 0) + count
        self.fs.namenode.check_room(counts)

    def _materialize(
        self, runs: Iterable[tuple[str, Iterable[_PendingFile]]]
    ) -> tuple[list[DataFile], list[DeleteFile]]:
        data: list[DataFile] = []
        deletes: list[DeleteFile] = []
        # Runs in staging order: the file ids (and so ``Snapshot.files``)
        # stay in the order the files were added.
        for directory, run in runs:
            self.fs.create_files(directory, self._allocate(directory, run, data, deletes))
        return data, deletes

    def _allocate(
        self,
        directory: str,
        run: Iterable[_PendingFile],
        data: list[DataFile],
        deletes: list[DeleteFile],
    ) -> Iterator[tuple[str, int]]:
        """Yield ``(name, size_bytes)`` per pending file of ``run``.

        Each file's id is allocated as the storage batch reaches it, so a
        batch that fails part-way leaves the ids a per-file loop would.
        """
        for size, records, partition, content, references in run:
            file_id = self._next_file_id
            self._next_file_id += 1
            if content is _DATA:
                name = f"part-{file_id:08d}.parquet"
                data.append(DataFile(file_id, f"{directory}/{name}", size, records, partition))
            else:
                name = f"delete-{file_id:08d}.parquet"
                deletes.append(
                    DeleteFile(
                        file_id, f"{directory}/{name}", size, records, partition, references
                    )
                )
            yield name, size

    # --- snapshot expiration -----------------------------------------------------------

    def expire_snapshots(
        self, older_than: float | None = None, retain_last: int = 1
    ) -> int:
        """Drop old snapshots and physically delete unreachable files.

        The work is proportional to what the expired commits changed, not
        to the size of any retained snapshot's live set.

        Args:
            older_than: expire snapshots committed at or before this time;
                defaults to "everything but the retained tail".  A snapshot
                newer than the cutoff keeps every later one too.
            retain_last: always keep at least this many most-recent snapshots
                (minimum 1 — the current snapshot is never expired).

        Returns:
            Number of physical files deleted from storage.
        """
        if retain_last < 1:
            raise ValidationError("retain_last must be >= 1")
        ordered = self.snapshots()
        cutoff = older_than if older_than is not None else float("inf")
        # Commit times never decrease, so the retained snapshots (the last
        # ``retain_last`` plus any newer than the cutoff) form a suffix.
        first = max(len(ordered) - retain_last, 0)
        while first > 0 and ordered[first - 1].timestamp > cutoff:
            first -= 1
        if first == 0:
            return 0
        expired = ordered[:first]

        # History is linear and a removed file never returns, so a file is
        # unreachable from every retained snapshot exactly when a commit up
        # to the oldest retained one removed it.  The oldest surviving
        # snapshot's own removals were collected when its parent expired.
        # Manifests follow the same rule: once a commit drops one from its
        # reachable list, no later snapshot references it again.
        unreachable: dict[str, None] = {}  # ordered, without duplicates
        for parent, child in zip(expired, ordered[1 : first + 1]):
            unreachable.update(dict.fromkeys(f.path for f in child.removed))
            unreachable.update(dict.fromkeys(parent.exclusive_metadata_paths))
            kept = set(child.manifest_paths)
            unreachable.update(
                dict.fromkeys(path for path in parent.manifest_paths if path not in kept)
            )
        exists = self.fs.namenode.exists
        deleted = len(self.fs.delete_files([path for path in unreachable if exists(path)]))
        for snap in expired:
            del self._snapshots[snap.snapshot_id]
        self.telemetry.increment("lst.expired_files", deleted)
        return deleted

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.identifier}, v{self._version}, "
            f"files={self.data_file_count})"
        )
