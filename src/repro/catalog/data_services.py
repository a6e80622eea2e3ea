"""Data services: reconcile observed table state with declared policies.

OpenHouse's data services run retention, orphan cleanup and (since
AutoComp) compaction on behalf of users.  This module provides the
non-compaction maintenance — snapshot retention sweeps — plus a small
reconciler report that surfaces which tables are out of policy, which
examples and the fleet rollout benches use as the "observed vs desired
state" signal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import Catalog

#: The share of a table's live files below its policy's target size above
#: which :meth:`DataServices.out_of_policy_tables` flags it.
SMALL_FILE_RATIO = 0.5


@dataclass(frozen=True)
class MaintenanceReport:
    """Summary of one data-services sweep."""

    tables_checked: int
    snapshots_expired_tables: int
    files_deleted: int
    out_of_policy: tuple[str, ...]


class DataServices:
    """Periodic policy reconciliation over all catalog tables."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def run_retention(self) -> MaintenanceReport:
        """Expire snapshots older than each table's retention policy.

        Returns:
            A report of what the sweep touched.
        """
        now = self.catalog.clock.now
        checked = 0
        expired_tables = 0
        files_deleted = 0
        for table in self.catalog.all_tables():
            checked += 1
            policy = self.catalog.policy(table.identifier)
            deleted = table.expire_snapshots(older_than=now - policy.snapshot_retention_s)
            if deleted:
                expired_tables += 1
                files_deleted += deleted
        return MaintenanceReport(
            tables_checked=checked,
            snapshots_expired_tables=expired_tables,
            files_deleted=files_deleted,
            out_of_policy=tuple(self.out_of_policy_tables()),
        )

    def out_of_policy_tables(self) -> list[str]:
        """Tables with more than :data:`SMALL_FILE_RATIO` of their live files
        below the policy's target size, as qualified names, sorted."""
        flagged = []
        for table in self.catalog.all_tables():
            count = table.data_file_count
            if count == 0:
                continue
            policy = self.catalog.policy(table.identifier)
            small = sum(
                1 for f in table.live_files() if f.size_bytes < policy.target_file_size
            )
            if small / count > SMALL_FILE_RATIO:
                flagged.append(str(table.identifier))
        return sorted(flagged)
