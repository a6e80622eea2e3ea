"""Table snapshots.

Each successful commit produces an immutable :class:`Snapshot` holding the
complete live file set at that version, so time-travel, conflict
validation and observation read one snapshot instead of replaying logs.

The live sets are insertion-ordered ``dict[file_id, file]`` maps.  File
ids are allocated monotonically and a commit only ever appends new ids, so
insertion order *is* ``file_id`` order.  A commit derives its child map
with ``dict.copy()`` (a C-level copy that never hashes a file object)
followed by one pop or insert per changed file, which makes a commit cost
O(Δ) in Python work rather than O(live files).  Each snapshot also records
the files its commit removed (data files plus the delete files it
dropped); history is linear, so snapshot expiration can find every
unreachable file from those deltas alone, without walking any live set.

Two partition indexes group live files by partition, both built by
:func:`group_by_partition`:

* the *head* index, one per table
  (:meth:`~repro.lst.base.BaseTable.files_in_partitions`), serves every
  read of the current version — generate, observe, rewrite planning,
  scans.  It is not maintained on commit: a read brings it up to date by
  replaying the deltas of the snapshots committed since the last read
  (the first ``summary["removed-data-files"]`` entries of
  :attr:`Snapshot.removed`, and the last ``summary["added-data-files"]``
  entries of :attr:`Snapshot.files`), and rebuilds it from the head's
  files when that chain is broken;
* the *per-snapshot* index (:attr:`Snapshot.files_by_partition`), built
  from scratch on first use, serves reads of any other version (time
  travel, planning at an older snapshot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from repro.lst.files import DataFile, DeleteFile


#: Live data files grouped by partition, each group in id order.
PartitionIndex = dict[tuple, tuple[DataFile, ...]]


def group_by_partition(files: Iterable[DataFile]) -> PartitionIndex:
    """Group ``files`` by partition, each group in the order given."""
    groups: dict[tuple, list[DataFile]] = {}
    for f in files:
        groups.setdefault(f.partition, []).append(f)
    return {partition: tuple(group) for partition, group in groups.items()}


def select_partitions(index: PartitionIndex, partitions: Iterable[tuple]) -> list[DataFile]:
    """The files of ``index`` in any of ``partitions``, in id order."""
    wanted = set(partitions)
    if len(wanted) == 1:
        return list(index.get(wanted.pop(), ()))
    return sorted(
        (f for p in wanted for f in index.get(p, ())), key=lambda f: f.file_id
    )


@dataclass(frozen=True)
class Snapshot:
    """One committed table version.

    Attributes:
        snapshot_id: unique, monotonically increasing per table.
        parent_id: snapshot this one was derived from (None for the first).
        sequence_number: commit sequence (equals the metadata version).
        timestamp: simulated commit time in seconds.
        operation: one of ``append``, ``overwrite``, ``delete``, ``replace``
            (compaction) — Iceberg's operation vocabulary.
        files: live data files readable at this version, keyed by
            ``file_id`` in ascending id order.  Owned by the snapshot;
            never mutate it.
        deletes: merge-on-read delete files in force, keyed by ``file_id``.
        manifest_paths: metadata manifests reachable from this snapshot; the
            engine's planning cost scales with this list's length.
        exclusive_metadata_paths: metadata files owned solely by this
            snapshot (e.g. Iceberg's manifest list and metadata JSON);
            deleted when the snapshot expires.
        summary: counters describing the commit (added/removed files etc.).
        removed: files this commit took out of the live sets relative to
            its parent — removed data files, then dropped delete files.
    """

    snapshot_id: int
    parent_id: int | None
    sequence_number: int
    timestamp: float
    operation: str
    files: dict[int, DataFile]
    deletes: dict[int, DeleteFile] = field(default_factory=dict)
    manifest_paths: tuple[str, ...] = ()
    exclusive_metadata_paths: tuple[str, ...] = ()
    summary: dict[str, int] = field(default_factory=dict)
    removed: tuple[DataFile | DeleteFile, ...] = ()

    @property
    def live_files(self):
        """All data files readable at this version (iterable, sized)."""
        return self.files.values()

    @property
    def delete_files(self):
        """All merge-on-read delete files in force (iterable, sized)."""
        return self.deletes.values()

    @cached_property
    def ordered_files(self) -> tuple[DataFile, ...]:
        """Live data files in deterministic (``file_id``) order.

        Snapshots are immutable, so every observation of the same version
        shares one tuple — observation is the hottest per-file path in the
        control plane.
        """
        return tuple(self.files.values())

    @cached_property
    def files_by_partition(self) -> PartitionIndex:
        """Live data files grouped by partition, each group in id order.

        Built from scratch once per version it is read at.  Reads of a
        table's current version go through the table's head index
        instead, which is brought up to date by delta.
        """
        return group_by_partition(self.files.values())

    @property
    def data_file_count(self) -> int:
        """Number of live data files."""
        return len(self.files)

    @property
    def delete_file_count(self) -> int:
        """Number of live delete files."""
        return len(self.deletes)

    @property
    def total_data_bytes(self) -> int:
        """Total bytes across live data files."""
        return sum(f.size_bytes for f in self.files.values())

    def files_in_partitions(self, partitions) -> list[DataFile]:
        """Live data files belonging to any of ``partitions``, in id order."""
        return select_partitions(self.files_by_partition, partitions)

    def partitions(self) -> list[tuple]:
        """Distinct partitions holding live files, sorted."""
        return sorted(self.files_by_partition)
