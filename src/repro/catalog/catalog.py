"""The catalog: databases, tables, and tenant quotas.

A database is a logical group of tables owned by one tenant (a LinkedIn
line of business) and maps to one storage directory carrying an HDFS
namespace quota — the ``UsedQuota/TotalQuota`` ratio that the paper's
production deployment feeds into its quota-aware MOOP weight (§7).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import (
    NoSuchTableError,
    TableAlreadyExistsError,
    ValidationError,
)
from repro.lst.base import BaseTable, TableIdentifier
from repro.lst.delta import DeltaTable
from repro.lst.hudi import HudiTable
from repro.lst.partitioning import PartitionSpec
from repro.lst.schema import Schema
from repro.lst.table import IcebergTable
from repro.catalog.policies import TablePolicy
from repro.catalog.serde import (
    serialize_policy,
    serialize_properties,
    serialize_schema,
    serialize_spec,
)
from repro.simulation.clock import SimClock
from repro.simulation.taps import TapBus
from repro.simulation.telemetry import Telemetry
from repro.storage.filesystem import SimulatedFileSystem

#: Table-format registry: format name -> table class.
TABLE_FORMATS: dict[str, type[BaseTable]] = {
    "iceberg": IcebergTable,
    "delta": DeltaTable,
    "hudi": HudiTable,
}


def _policy_properties(policy: TablePolicy) -> dict[str, object]:
    """The table properties a maintenance policy sets."""
    return {
        "write.target-file-size-bytes": policy.target_file_size,
        "snapshot.retention-s": policy.snapshot_retention_s,
    }


class TableCommit(NamedTuple):
    """A ``table_commit`` as the catalog publishes it: the commit's own file
    lists and removed-id set, by reference (nothing mutates them after the
    commit hooks run); :meth:`as_event` builds the trace event on demand."""

    t: float
    database: str
    table: str
    op: str
    added_data: list  # of DataFile
    added_deletes: list  # of DeleteFile
    removed_ids: frozenset[int]
    version: int

    def as_event(self) -> dict:
        """The ``table_commit`` trace event for this commit."""
        return {
            "kind": "table_commit",
            "t": self.t,
            "database": self.database,
            "table": self.table,
            "op": self.op,
            # Added files in materialization order, so a replayer
            # re-staging them allocates identical file ids.
            "added": [[list(f.partition), f.size_bytes] for f in self.added_data],
            "deletes": [[list(d.partition), d.size_bytes, sorted(d.references)]
                        for d in self.added_deletes],
            "removed": sorted(self.removed_ids),
            "version": self.version,
        }


@dataclass
class Database:
    """A tenant's logical group of tables."""

    name: str
    created_at: float
    location: str
    quota_objects: int | None = None
    tables: dict[str, BaseTable] = field(default_factory=dict)


class Catalog:
    """Declarative catalog over a shared filesystem.

    Args:
        fs: backing filesystem; a private one is created if omitted.
        clock: simulated clock (falls back to the filesystem's).
        telemetry: metric sink (falls back to the filesystem's).
        warehouse: storage root under which databases live.
        taps: optional event bus; when present the catalog publishes the
            Policy Lab's catalog-scoped trace events — ``db_create`` /
            ``table_create`` on creation, and ``table_commit`` (a
            :class:`TableCommit` of the exact per-commit file delta and the
            post-commit ``table.version`` freshness token) from a hook
            installed on every table it creates.  A bus can also be
            attached later via :meth:`attach_taps`.
    """

    def __init__(
        self,
        fs: SimulatedFileSystem | None = None,
        clock: SimClock | None = None,
        telemetry: Telemetry | None = None,
        warehouse: str = "/data",
        taps: TapBus | None = None,
    ) -> None:
        self.fs = fs if fs is not None else SimulatedFileSystem()
        self.clock = clock if clock is not None else self.fs.clock
        self.telemetry = telemetry if telemetry is not None else self.fs.telemetry
        self.warehouse = warehouse.rstrip("/") or "/data"
        self.taps = taps
        self.lock_manager = None
        self._databases: dict[str, Database] = {}
        self._policies: dict[str, TablePolicy] = {}

    # --- event taps --------------------------------------------------------------

    def attach_taps(self, taps: TapBus) -> TapBus:
        """Attach an event bus after construction; returns the bus.

        Installs the ``table_commit`` hook on every already-registered
        table, so a recorder subscribed to the bus sees all *future*
        commits.  Past history is not replayed — recorders that attach
        mid-life start from a checkpoint (see
        :mod:`repro.replay.catalog_trace`).
        """
        self.taps = taps
        for database in self._databases.values():
            for table in database.tables.values():
                self._install_commit_tap(table)
        return taps

    def _install_commit_tap(self, table: BaseTable) -> None:
        if any(getattr(hook, "_catalog_tap", False) for hook in table.commit_hooks):
            return
        # Weak: the table must not keep its catalog alive (no reference cycle).
        catalog_ref = weakref.ref(self)

        def publish_commit(table, operation, added_data, added_deletes, removed_ids):
            catalog = catalog_ref()
            taps = catalog.taps if catalog is not None else None
            if taps is None or not taps.has_subscribers("table_commit"):
                return
            ident = table.identifier
            taps.publish(
                "table_commit",
                TableCommit(table.clock.now, ident.database, ident.name, operation,
                            added_data, added_deletes, removed_ids, table.version),
            )

        publish_commit._catalog_tap = True  # type: ignore[attr-defined]
        table.commit_hooks.append(publish_commit)

    # --- compaction lock audit ----------------------------------------------------

    def attach_locks(self, manager) -> None:
        """Audit every compaction commit against a lock manager's state.

        Installs a commit hook on every registered (and future) table
        that, on each ``replace`` commit — the operation compaction
        performs — asks the
        :class:`~repro.core.locks.LockManager` to record whether the
        table was covered by a lock at commit time.  The manager reads
        lock files from disk, so commits driven by *other* daemon
        instances sharing the lock directory are attributed correctly;
        :func:`~repro.core.locks.verify_audit` then proves the
        no-double-compaction invariant over the combined log.
        """
        self.lock_manager = manager
        for database in self._databases.values():
            for table in database.tables.values():
                self._install_lock_hook(table)

    def _install_lock_hook(self, table: BaseTable) -> None:
        if any(getattr(hook, "_lock_audit", False) for hook in table.commit_hooks):
            return
        catalog_ref = weakref.ref(self)

        def audit_commit(table, operation, added_data, added_deletes, removed_ids):
            catalog = catalog_ref()
            manager = catalog.lock_manager if catalog is not None else None
            if manager is None or operation != "replace":
                return
            manager.audit_compaction(str(table.identifier), version=table.version)

        audit_commit._lock_audit = True  # type: ignore[attr-defined]
        table.commit_hooks.append(audit_commit)

    # --- databases ---------------------------------------------------------------

    def create_database(self, name: str, quota_objects: int | None = None) -> Database:
        """Create a database (tenant namespace).

        Args:
            name: database name, unique within the catalog.
            quota_objects: optional HDFS-style namespace-object quota for the
                database's storage subtree.

        Raises:
            ValidationError: if the database already exists.
        """
        if name in self._databases:
            raise ValidationError(f"database {name!r} already exists")
        location = f"{self.warehouse}/{name}"
        database = Database(
            name=name,
            created_at=self.clock.now,
            location=location,
            quota_objects=quota_objects,
        )
        if quota_objects is not None:
            self.fs.set_quota(location, quota_objects)
        self._databases[name] = database
        if self.taps is not None and self.taps.has_subscribers("db_create"):
            self.taps.publish(
                "db_create",
                {"t": self.clock.now, "name": name, "quota_objects": quota_objects},
            )
        return database

    def database(self, name: str) -> Database:
        """Look up a database.

        Raises:
            ValidationError: if unknown.
        """
        database = self._databases.get(name)
        if database is None:
            raise ValidationError(f"no database named {name!r}")
        return database

    def list_databases(self) -> list[str]:
        """Database names, sorted."""
        return sorted(self._databases)

    def quota_utilization(self, database_name: str) -> float:
        """``UsedQuota / TotalQuota`` for a database (0.0 when unlimited)."""
        database = self.database(database_name)
        if database.quota_objects is None:
            return 0.0
        return self.fs.quota_utilization(database.location)

    # --- tables -----------------------------------------------------------------------

    def create_table(
        self,
        identifier: TableIdentifier | str,
        schema: Schema,
        spec: PartitionSpec | None = None,
        table_format: str = "iceberg",
        properties: dict[str, object] | None = None,
        policy: TablePolicy | None = None,
    ) -> BaseTable:
        """Create and register a table.

        Args:
            identifier: ``TableIdentifier`` or ``'db.table'`` string; the
                database must already exist.
            schema: column definitions.
            spec: partition spec (default unpartitioned).
            table_format: registered format name (``iceberg``, ``delta``
                or ``hudi``; extendable via :data:`TABLE_FORMATS`).
            properties: table properties passed to the format.
            policy: maintenance policy (defaults applied if omitted).

        Raises:
            TableAlreadyExistsError: on duplicate identifiers.
            ValidationError: for unknown databases or formats.
        """
        if isinstance(identifier, str):
            identifier = TableIdentifier.parse(identifier)
        database = self.database(identifier.database)
        if identifier.name in database.tables:
            raise TableAlreadyExistsError(str(identifier))
        table_cls = TABLE_FORMATS.get(table_format)
        if table_cls is None:
            raise ValidationError(
                f"unknown table format {table_format!r}; registered: "
                f"{sorted(TABLE_FORMATS)}"
            )
        policy = policy if policy is not None else TablePolicy()
        merged_properties = _policy_properties(policy)
        merged_properties.update(properties or {})
        table = table_cls(
            identifier=identifier,
            schema=schema,
            spec=spec,
            fs=self.fs,
            location=f"{database.location}/{identifier.name}",
            properties=merged_properties,
            telemetry=self.telemetry,
            clock=self.clock,
        )
        database.tables[identifier.name] = table
        self._policies[str(identifier)] = policy
        self.telemetry.increment("catalog.tables.created")
        if self.lock_manager is not None:
            self._install_lock_hook(table)
        if self.taps is not None:
            self._install_commit_tap(table)
            if self.taps.has_subscribers("table_create"):
                self.taps.publish(
                    "table_create",
                    {
                        "t": self.clock.now,
                        "database": identifier.database,
                        "table": identifier.name,
                        "format": table_format,
                        "schema": serialize_schema(schema),
                        "spec": serialize_spec(table.spec),
                        "properties": serialize_properties(merged_properties),
                        "policy": serialize_policy(policy),
                    },
                )
        return table

    def load_table(self, identifier: TableIdentifier | str) -> BaseTable:
        """Look up a registered table.

        Raises:
            NoSuchTableError: if absent.
        """
        if isinstance(identifier, str):
            identifier = TableIdentifier.parse(identifier)
        database = self._databases.get(identifier.database)
        if database is None or identifier.name not in database.tables:
            raise NoSuchTableError(str(identifier))
        return database.tables[identifier.name]

    def drop_table(self, identifier: TableIdentifier | str) -> None:
        """Unregister a table and physically delete its files.

        Raises:
            NoSuchTableError: if absent.
        """
        if isinstance(identifier, str):
            identifier = TableIdentifier.parse(identifier)
        database = self._databases.get(identifier.database)
        if database is None or identifier.name not in database.tables:
            raise NoSuchTableError(str(identifier))
        table = database.tables.pop(identifier.name)
        self.fs.delete_files([info.path for info in self.fs.namenode.files_under(table.location)])
        self._policies.pop(str(identifier), None)
        self.telemetry.increment("catalog.tables.dropped")

    def list_tables(self, database_name: str | None = None) -> list[TableIdentifier]:
        """Identifiers of registered tables (optionally one database), sorted."""
        names = [database_name] if database_name is not None else self.list_databases()
        out: list[TableIdentifier] = []
        for name in names:
            database = self.database(name)
            out.extend(
                TableIdentifier(name, table_name) for table_name in sorted(database.tables)
            )
        return out

    def all_tables(self) -> list[BaseTable]:
        """All registered table objects, ordered by identifier."""
        return [self.load_table(ident) for ident in self.list_tables()]

    def policy(self, identifier: TableIdentifier | str) -> TablePolicy:
        """The maintenance policy for a table.

        Raises:
            NoSuchTableError: if the table is not registered.
        """
        if isinstance(identifier, str):
            identifier = TableIdentifier.parse(identifier)
        key = str(identifier)
        if key not in self._policies:
            raise NoSuchTableError(key)
        return self._policies[key]
