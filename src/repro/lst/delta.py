"""Delta-Lake-like table format.

Metadata layout per commit, mirroring Delta Lake:

* one JSON commit file ``_delta_log/<version>.json`` per transaction, and
* a checkpoint file every ``checkpoint_interval`` commits that squashes the
  log, so readers replay only the segment since the last checkpoint.

The "manifests read" planning cost is therefore the number of log files
since the last checkpoint (plus the checkpoint itself), which — unlike the
Iceberg profile — is bounded regardless of append count.

Conflict semantics default to :meth:`ConflictSemantics.delta_v2_4`:
file-granularity validation, so concurrent OPTIMIZE jobs on disjoint file
sets commit cleanly.  This is the profile used for the §6.3 auto-tuning
experiments, which ran on Delta Lake v2.4.0.
"""

from __future__ import annotations

from repro.lst.base import BaseTable, ConflictSemantics
from repro.lst.snapshot import Snapshot
from repro.units import KiB

#: Base size of a JSON commit file plus per-action entry cost.
COMMIT_JSON_BASE = 2 * KiB
COMMIT_JSON_PER_ACTION = 200
#: Base size of a checkpoint parquet plus per-live-file entry cost.
CHECKPOINT_BASE = 256 * KiB
CHECKPOINT_PER_FILE = 64
#: Commits between checkpoints (Delta's default).
DEFAULT_CHECKPOINT_INTERVAL = 10


class DeltaTable(BaseTable):
    """Delta-Lake-v2.4.0-like log-structured table."""

    format_name = "delta"

    def _default_conflict_semantics(self) -> ConflictSemantics:
        return ConflictSemantics.delta_v2_4()

    @property
    def checkpoint_interval(self) -> int:
        """Commits between checkpoints (table property
        ``delta.checkpoint-interval``, default 10)."""
        return int(self.properties.get("delta.checkpoint-interval", DEFAULT_CHECKPOINT_INTERVAL))

    def _metadata_files(self, version: int) -> tuple[str, int]:
        checkpoint = version % self.checkpoint_interval == 0
        return f"{self.location}/_delta_log", 2 if checkpoint else 1

    def _write_commit_metadata(
        self,
        snapshot_id: int,
        version: int,
        added: int,
        removed: int,
        parent: Snapshot | None,
        operation: str,
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        log_dir = f"{self.location}/_delta_log"
        commit_path = f"{log_dir}/{version:020d}.json"
        self.fs.create_file(
            commit_path, COMMIT_JSON_BASE + COMMIT_JSON_PER_ACTION * (added + removed)
        )

        interval = self.checkpoint_interval
        if version % interval == 0:
            live = parent.data_file_count + added - removed if parent else added
            checkpoint_path = f"{log_dir}/{version:020d}.checkpoint.parquet"
            self.fs.create_file(
                checkpoint_path, CHECKPOINT_BASE + CHECKPOINT_PER_FILE * max(live, 0)
            )
            # The commit json is superseded by the checkpoint for readers
            # but remains part of the durable log until its snapshot expires.
            return (checkpoint_path,), (commit_path,)

        previous = parent.manifest_paths if parent else ()
        return previous + (commit_path,), ()
