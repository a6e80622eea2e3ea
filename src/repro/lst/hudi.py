"""Hudi-like table format.

Apache Hudi is the third LST the paper names (§1).  Its metadata lives on a
*timeline* — one commit file per transaction under ``.hoodie/`` — and its
MVCC design is merge-on-read-first: delta files accumulate against base
files and a table service (compaction) folds them in, which is why Hudi
ships built-in automatic compaction (§9 of the paper credits Hudi and
Paimon with integrating write/read-optimised regions natively).

Profile differences captured here:

* metadata: one timeline commit file per transaction; readers replay the
  timeline since the last compaction ("replace") commit, so planning cost
  grows with commits and resets at compaction — like Delta's checkpoints
  but triggered by the table service rather than a fixed interval;
* conflicts: file-group granularity.  Appends never conflict; concurrent
  rewrites of disjoint file groups both commit; only true file overlaps
  abort.
"""

from __future__ import annotations

from repro.lst.base import BaseTable, ConflictSemantics
from repro.lst.snapshot import Snapshot
from repro.units import KiB

#: Base size of a timeline commit file plus per-action entry cost.
COMMIT_FILE_BASE = 1 * KiB
COMMIT_FILE_PER_ACTION = 96


class HudiTable(BaseTable):
    """Apache-Hudi-like log-structured table."""

    format_name = "hudi"

    def _default_conflict_semantics(self) -> ConflictSemantics:
        return ConflictSemantics(
            append_fails_on_concurrent_rewrite=False,
            overwrite_fails_on_same_partition_commit=True,
            rowdelta_fails_on_reference_removed=True,
            rewrite_fails_on_concurrent_rewrite_any_partition=False,
            rewrite_fails_on_same_partition_write=False,
        )

    def _metadata_files(self, version: int) -> tuple[str, int]:
        return f"{self.location}/.hoodie", 1

    def _write_commit_metadata(
        self,
        snapshot_id: int,
        version: int,
        added: int,
        removed: int,
        parent: Snapshot | None,
        operation: str,
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        timeline_dir = f"{self.location}/.hoodie"
        suffix = "replacecommit" if operation == "replace" else "commit"
        commit_path = f"{timeline_dir}/{version:012d}.{suffix}"
        self.fs.create_file(
            commit_path, COMMIT_FILE_BASE + COMMIT_FILE_PER_ACTION * (added + removed)
        )
        if operation == "replace":
            # Compaction collapses the readable timeline: readers start
            # from the replace commit.
            return (commit_path,), ()
        previous = parent.manifest_paths if parent else ()
        return previous + (commit_path,), ()
