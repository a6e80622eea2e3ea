"""Catalog trace capture: checkpoints, recorder, and the history ring.

Three pieces turn a live LST-catalog deployment (§6's setting) into
replayable traces:

* :func:`catalog_checkpoint` — a frozen, JSON-safe snapshot of an entire
  :class:`~repro.catalog.catalog.Catalog` (databases, table definitions,
  live file layouts, version/id counters), from which
  :func:`restore_checkpoint` rebuilds an equivalent catalog without the
  events that produced it;
* :class:`CatalogTraceRecorder` — the catalog analogue of
  :class:`~repro.replay.recorder.TraceRecorder`: subscribes to the
  catalog-scoped event kinds on a :class:`~repro.simulation.taps.TapBus`
  and streams them to a (optionally compressed, chunked) trace, rotating
  on checkpoint boundaries for month-scale runs;
* :class:`CatalogHistoryRing` — a bounded in-memory ring of trace
  segments, each opening with a checkpoint, that lets a running
  :class:`~repro.core.service.AutoCompService` hand its own recent history
  to the what-if machinery (``evaluate_recent``) without unbounded growth:
  old segments fall off the back, and any suffix of the ring is a valid
  standalone trace because every segment boundary carries a checkpoint.
  Checkpoints (snapshot pins) and commits become events only when read.
"""

from __future__ import annotations

import os
from collections import deque
from typing import IO

from repro.catalog.catalog import Catalog
from repro.catalog.serde import (
    serialize_cluster,
    serialize_policy,
    serialize_properties,
    serialize_schema,
    serialize_spec,
)
from repro.errors import ValidationError
from repro.replay.trace import TRACE_SCHEMA_VERSION, Trace, TraceWriter
from repro.simulation.taps import CATALOG_EVENT_KINDS, TapBus


def catalog_header(seed: int, warehouse: str = "/data", cluster=None) -> dict:
    """The schema-v2 header record for a catalog trace.

    ``cluster`` (the compaction cluster the recorded deployment ran
    AutoComp on) is serialized so replays rebuild the same cost surface —
    compaction durations and GBHr depend on executor count and memory.
    """
    catalog_info: dict = {"warehouse": warehouse}
    if cluster is not None:
        catalog_info["cluster"] = serialize_cluster(cluster)
    return {
        "kind": "header",
        "schema": TRACE_SCHEMA_VERSION,
        "trace_type": "catalog",
        "seed": int(seed),
        "catalog": catalog_info,
    }


class _CheckpointPin:
    """A checkpoint by reference: per table, the table, its policy and current
    snapshot (all frozen), its counters and copies of its partition mtimes
    and properties; O(tables + partitions), and no file record is read."""

    def __init__(self, catalog: Catalog, t: float | None = None) -> None:
        self.t = catalog.clock.now if t is None else t
        self.databases = []
        for db_name in catalog.list_databases():
            database = catalog.database(db_name)
            tables = [
                (table, catalog.policy(table.identifier), table.current_snapshot(),
                 table.created_at, table.last_modified_at, table.version,
                 table._next_file_id, table._next_snapshot_id,
                 dict(table._partition_last_modified), dict(table.properties))
                for _, table in sorted(database.tables.items())
            ]
            self.databases.append((db_name, database.quota_objects, tables))

    def as_event(self) -> dict:
        """The ``checkpoint`` event as of the moment the pin was taken."""
        databases = [
            {"name": name, "quota_objects": quota, "tables": [_table_entry(*t) for t in tables]}
            for name, quota, tables in self.databases
        ]
        return {"kind": "checkpoint", "t": self.t, "databases": databases}


def _table_entry(table, policy, snap, created_at, last_modified_at, version,
                 next_file_id, next_snapshot_id, mtimes, properties) -> dict:
    # A snapshot's file maps are in ascending id order.
    files = snap.files.values() if snap else ()
    deletes = snap.deletes.values() if snap else ()
    return {
        "table": table.identifier.name,
        "format": table.format_name,
        "schema": serialize_schema(table.schema),
        "spec": serialize_spec(table.spec),
        "properties": serialize_properties(properties),
        "policy": serialize_policy(policy),
        "created_at": created_at,
        "last_modified_at": last_modified_at,
        "version": version,
        "next_file_id": next_file_id,
        "next_snapshot_id": next_snapshot_id,
        "current_snapshot_id": snap.snapshot_id if snap else None,
        "files": [[f.file_id, list(f.partition), f.size_bytes] for f in files],
        "deletes": [[d.file_id, list(d.partition), d.size_bytes, sorted(d.references)]
                    for d in deletes],
        "partition_mtimes": [[list(p), mtime] for p, mtime in sorted(mtimes.items())],
    }


def catalog_checkpoint(catalog: Catalog, t: float | None = None) -> dict:
    """A ``checkpoint`` event freezing the catalog's current state.

    Captures everything :func:`restore_checkpoint` needs: per-database
    quotas, per-table definitions (schema/spec/policy/properties), the
    live data/delete file layout, and the version / file-id / snapshot-id
    counters that keep post-checkpoint replays allocating exactly the ids
    the source run allocated.
    """
    return _CheckpointPin(catalog, t).as_event()


def restore_checkpoint(catalog: Catalog, event: dict) -> None:
    """Rebuild databases and tables from a ``checkpoint`` event.

    The catalog must be empty.  Restored tables hold the checkpointed live
    layout under one synthetic snapshot (pre-checkpoint snapshot history
    and metadata files are not reconstructed — two replays from the same
    checkpoint still agree exactly, which is the property what-if sweeps
    need).
    """
    from repro.catalog.serde import parse_policy, parse_schema, parse_spec

    if catalog.list_databases():
        raise ValidationError("checkpoint restore requires an empty catalog")
    for db_info in event["databases"]:
        catalog.create_database(db_info["name"], quota_objects=db_info["quota_objects"])
        for table_info in db_info["tables"]:
            table = catalog.create_table(
                f"{db_info['name']}.{table_info['table']}",
                schema=parse_schema(table_info["schema"]),
                spec=parse_spec(table_info["spec"]),
                table_format=table_info["format"],
                properties=dict(table_info["properties"]),
                policy=parse_policy(table_info["policy"]),
            )
            table.restore_state(
                version=table_info["version"],
                next_file_id=table_info["next_file_id"],
                next_snapshot_id=table_info["next_snapshot_id"],
                current_snapshot_id=table_info["current_snapshot_id"],
                created_at=table_info["created_at"],
                last_modified_at=table_info["last_modified_at"],
                files=[
                    (file_id, tuple(partition), size)
                    for file_id, partition, size in table_info["files"]
                ],
                deletes=[
                    (file_id, tuple(partition), size, frozenset(refs))
                    for file_id, partition, size, refs in table_info["deletes"]
                ],
                partition_mtimes={
                    tuple(partition): mtime
                    for partition, mtime in table_info["partition_mtimes"]
                },
            )


class CatalogTraceRecorder:
    """Records catalog events published on a bus into a JSONL trace.

    Args:
        sink: trace destination — a path (required for chunked mode) or an
            open text stream.
        taps: the bus the catalog (and pipeline) publish on; subscribe the
            recorder *before* creating databases/tables so the trace
            contains the full catalog genesis, or call
            :meth:`write_checkpoint` right after attaching to record a
            mid-life starting point instead.
        seed: root seed stamped into the header (provenance; catalog
            replay itself is deterministic without RNG).
        catalog: when given, enables :meth:`write_checkpoint` /
            checkpointed rotation.
        cluster: the compaction cluster serialized into the header so
            replays rebuild the same cost surface.
        compress: write gzip-compressed segment files (see
            :class:`~repro.replay.trace.TraceWriter`; needs a path sink).
            A segment seals only at :meth:`rotate`.
    """

    def __init__(
        self,
        sink: str | os.PathLike | IO[str],
        taps: TapBus,
        seed: int = 0,
        catalog: Catalog | None = None,
        cluster=None,
        compress: bool = False,
    ) -> None:
        self._writer = TraceWriter(sink, compress=compress)
        self._taps = taps
        self._catalog = catalog
        self._closed = False
        warehouse = catalog.warehouse if catalog is not None else "/data"
        self._writer.write(catalog_header(seed, warehouse=warehouse, cluster=cluster))
        for kind in CATALOG_EVENT_KINDS:
            taps.subscribe(kind, self._on_event)

    @property
    def events_recorded(self) -> int:
        """Events written so far (header excluded)."""
        return max(self._writer.records_written - 1, 0)

    def write_checkpoint(self) -> None:
        """Append a checkpoint of the bound catalog's current state.

        Raises:
            ValidationError: when the recorder has no catalog bound.
        """
        if self._catalog is None:
            raise ValidationError("checkpoints need a catalog bound to the recorder")
        self._writer.write(catalog_checkpoint(self._catalog))

    def rotate(self, checkpoint: bool = True) -> None:
        """Seal the current segment; optionally open the next with a checkpoint.

        Month-scale recordings rotate periodically so any suffix of
        segments replays standalone (each post-rotation segment begins
        with the catalog state it assumes).
        """
        self._writer.rotate()
        if checkpoint and self._catalog is not None:
            self.write_checkpoint()

    def _on_event(self, kind: str, payload) -> None:
        if self._closed:
            return
        event = payload.as_event() if kind == "table_commit" else {"kind": kind, **payload}
        self._writer.write(event)

    def close(self) -> None:
        """Unsubscribe and flush/close the underlying writer (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for kind in CATALOG_EVENT_KINDS:
            self._taps.unsubscribe(kind, self._on_event)
        self._writer.close()

    def __enter__(self) -> "CatalogTraceRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Events (its opening checkpoint not counted) at which a
#: :class:`CatalogHistoryRing` seals its open segment even without a cycle.
SEGMENT_EVENTS = 4096


class CatalogHistoryRing:
    """A bounded ring of in-memory trace segments over a live catalog.

    The deployment self-evaluation substrate:
    :meth:`~repro.core.service.AutoCompService.evaluate_recent` asks the
    ring for a :class:`~repro.replay.trace.Trace` covering the last
    ``window`` segments and sweeps policy variants over it offline.  Every
    segment opens with a checkpoint, so dropping old segments never breaks
    replayability.  Checkpoints are held as snapshot pins and commits as the
    catalog's records; :meth:`trace` and :meth:`spill` build each event once,
    the event it was when recorded.  Segments seal after
    ``segment_cycles`` recorded cycle events and the ring keeps at most
    ``max_segments`` of them (the current, still-open segment included).

    Args:
        catalog: the live catalog whose events are ring-buffered.
        taps: the bus catalog/pipeline events arrive on.
        seed: stamped into generated trace headers.
        cluster: compaction cluster serialized into generated headers.
        segment_cycles: cycle events per segment before sealing.
        max_segments: ring capacity (oldest segments are evicted).

    A segment also seals when it holds :data:`SEGMENT_EVENTS` events, so a
    service that stops cycling (expired trigger) under a workload that
    keeps committing still holds at most ``max_segments × SEGMENT_EVENTS``
    events instead of growing one open segment without bound.
    """

    def __init__(
        self,
        catalog: Catalog,
        taps: TapBus,
        seed: int = 0,
        cluster=None,
        segment_cycles: int = 8,
        max_segments: int = 8,
    ) -> None:
        if segment_cycles <= 0:
            raise ValidationError("segment_cycles must be positive")
        if max_segments <= 0:
            raise ValidationError("max_segments must be positive")
        self.catalog = catalog
        self.seed = seed
        self.cluster = cluster
        self.segment_cycles = segment_cycles
        self.max_segments = max_segments
        self._taps = taps
        self._segments: deque[list] = deque()  # events, pins, commit records
        self._cycles_in_segment = 0
        self.events_recorded = 0
        self._closed = False
        self._versions_at_close: tuple = ()
        self._begin_segment()
        for kind in CATALOG_EVENT_KINDS:
            taps.subscribe(kind, self._on_event)

    @property
    def closed(self) -> bool:
        """Whether the ring is unsubscribed (see :meth:`close`)."""
        return self._closed

    @property
    def n_segments(self) -> int:
        """Segments currently held (the open one included)."""
        return len(self._segments)

    def _begin_segment(self) -> None:
        self._segments.append([_CheckpointPin(self.catalog)])
        self._cycles_in_segment = 0
        while len(self._segments) > self.max_segments:
            self._segments.popleft()

    def _on_event(self, kind: str, payload) -> None:
        if self._closed:
            return
        # A commit stays a TableCommit record until a trace reads it.
        self._segments[-1].append(payload if kind == "table_commit" else {"kind": kind, **payload})
        self.events_recorded += 1
        if kind == "cycle":
            self._cycles_in_segment += 1
            if self._cycles_in_segment >= self.segment_cycles:
                self._begin_segment()
                return
        # The checkpoint does not count against the cap (> rather than >=
        # would re-seal immediately on a 1-event segment).
        if len(self._segments[-1]) - 1 >= SEGMENT_EVENTS:
            self._begin_segment()

    def trace(self, window: int | None = None) -> Trace:
        """A standalone trace over the last ``window`` segments (None = all).

        The first included segment contributes its opening checkpoint;
        later segments contribute events only (their checkpoints are
        redundant restatements of already-replayed state).

        Ring edges degrade to "evaluate what exists" instead of raising:
        a ``window`` larger than the recorded history clamps to the whole
        ring (the unsealed trailing segment included), and ``window=0``
        yields a minimal trace holding one fresh checkpoint of the
        catalog's *current* state — replayable, zero recorded history.
        Only a negative window is a caller error.
        """
        if window is not None and window < 0:
            raise ValidationError("window must be non-negative")
        header = catalog_header(
            self.seed, warehouse=self.catalog.warehouse, cluster=self.cluster
        )
        if window == 0:
            return Trace(header=header, events=[catalog_checkpoint(self.catalog)])
        segments = list(self._segments)
        if window is not None:
            segments = segments[-window:]  # clamps when window > len
        events = self._events(segments[0])
        for segment in segments[1:]:
            events.extend(self._events(segment, start=1))  # skip its checkpoint
        return Trace(header=header, events=events)

    @staticmethod
    def _events(segment: list, start: int = 0) -> list[dict]:
        """``segment[start:]`` as events, each pin or record built once, in place."""
        end = len(segment)  # a commit may append meanwhile
        for i in range(start, end):
            if not isinstance(segment[i], dict):
                segment[i] = segment[i].as_event()
        return segment[start:end]

    def spill(self, path: str | os.PathLike) -> int:
        """Persist the whole ring, one gzip trace segment per ring segment.

        ``spill`` preserves the ring's *structure*: every segment keeps its
        opening checkpoint and the writer rotates at each segment
        boundary, so :meth:`load` can rebuild an equivalent ring — same
        segment boundaries, same events — after a daemon restart.  The
        unsealed trailing segment spills too.

        Returns the number of ring segments written.
        """
        writer = TraceWriter(path, compress=True)
        try:
            writer.write(
                catalog_header(
                    self.seed, warehouse=self.catalog.warehouse, cluster=self.cluster
                )
            )
            for segment in self._segments:
                for event in self._events(segment):
                    writer.write(event)
                writer.rotate()  # one trace segment per ring segment
        finally:
            writer.close()
        return len(self._segments)

    def load(self, path: str | os.PathLike) -> int:
        """Rebuild the ring from a :meth:`spill` file (or any catalog trace).

        Replaces the current segments with the spilled ones, splitting the
        event stream at ``checkpoint`` boundaries (each spilled ring
        segment opened with one), trimming to ``max_segments``, and
        resuming recording into the restored trailing segment — so a
        restarted service's :meth:`trace` yields the same events, and
        ``evaluate_recent`` the same rankings, as before the restart.

        Returns the number of segments restored.
        """
        from repro.replay.trace import TraceReader

        trace = TraceReader(path).read()
        segments: list[list[dict]] = []
        for event in trace.events:
            if event["kind"] == "checkpoint" or not segments:
                segments.append([])
            segments[-1].append(event)
        if not segments:
            segments = [[catalog_checkpoint(self.catalog)]]
        self._segments = deque(segments[-self.max_segments :])
        self._cycles_in_segment = sum(
            1 for e in self._segments[-1] if e["kind"] == "cycle"
        )
        self.events_recorded = sum(
            1 for s in self._segments for e in s if e["kind"] != "checkpoint"
        )
        return len(self._segments)

    def _catalog_versions(self) -> tuple:
        catalog = self.catalog
        return (
            tuple(catalog.list_databases()),
            tuple((str(t.identifier), t.version) for t in catalog.all_tables()),
        )

    def close(self) -> None:
        """Unsubscribe from the bus (idempotent); segments stay readable.

        The bus no longer references the ring, so a closed ring (and the
        catalog it holds) is freed with its last outside reference.
        :meth:`reopen` resumes recording.
        """
        if self._closed:
            return
        self._closed = True
        self._versions_at_close = self._catalog_versions()
        for kind in CATALOG_EVENT_KINDS:
            self._taps.unsubscribe(kind, self._on_event)

    def reopen(self) -> None:
        """Resubscribe after :meth:`close` (no-op while open).

        Events published while closed were not recorded.  If the catalog
        changed meanwhile (a database or table appeared, or a table
        committed), the held segments would no longer replay into the
        catalog's state, so they are dropped and recording restarts from a
        fresh checkpoint; otherwise recording continues in the open segment.
        """
        if not self._closed:
            return
        if self._catalog_versions() != self._versions_at_close:
            self._segments.clear()
            self._begin_segment()
        self._closed = False
        for kind in CATALOG_EVENT_KINDS:
            self._taps.subscribe(kind, self._on_event)
