"""The versioned JSONL trace format of the Policy Lab.

A trace is a newline-delimited sequence of JSON records.  The first record
is always a ``header`` carrying the schema version, the source run's root
seed and a ``trace_type``; every following record is an *event*.

Two trace types exist as of schema v2:

* ``fleet`` (the only type in schema v1) — events produced by the
  vectorised §7 fleet simulation:

  * ``onboard`` — a batch of tables joining the fleet, with the full
    per-table state columns (:data:`~repro.fleet.model.TABLE_COLUMNS`);
  * ``day`` — one day of write commits, sparse per-class file deltas;
  * ``compact`` — one realised compaction with the exact post-rewrite state;
  * ``cycle`` — one control-plane cycle summary (reference metadata).

* ``catalog`` (new in v2) — events produced by the live §6 LST-catalog
  plane (:class:`~repro.catalog.catalog.Catalog` and
  :class:`~repro.core.pipeline.AutoCompPipeline` publish them on a
  :class:`~repro.simulation.taps.TapBus`), each stamped with the simulated
  time ``t`` it occurred at:

  * ``db_create`` / ``table_create`` — catalog DDL, with full
    schema/spec/policy serialization so a replayer recreates the table
    byte-for-byte;
  * ``table_commit`` — one committed transaction's exact file delta
    (added files in materialization order, removed file ids, MoR delete
    files) plus the post-commit ``table.version`` freshness token;
    compactions are the ``op == "replace"`` commits;
  * ``cycle`` — one full serialized OODA
    :class:`~repro.core.pipeline.CycleReport` — both reference metadata
    and the cadence marker what-if replay re-runs its own cycles at;
  * ``checkpoint`` — a frozen per-table catalog layout written at segment
    rotations, letting a replayer start mid-history (the
    :class:`~repro.replay.catalog_trace.CatalogHistoryRing` ring-buffer
    contract).

Records use canonical JSON (sorted keys, no whitespace), so a trace is
byte-reproducible from the same source run and diffs cleanly.

**Chunked traces** (v2): month-scale traces grow without bound as a single
file, so :class:`TraceWriter` can *rotate* — events stream into numbered
segment files (optionally gzip-compressed with a pinned mtime, so
compressed traces stay byte-reproducible) while the main file becomes a
manifest holding the header (flagged ``chunked``) plus one ``segment``
index record per sealed segment.  :class:`TraceReader` follows the index
transparently: a parsed :class:`Trace` looks identical whether it came
from one file or thirty segments.

:class:`TraceReader` validates schema version, record shape and event
ordering (fleet days / catalog times must be non-decreasing, the header
must come first) before anything downstream consumes the trace.  Schema
v1 traces remain readable.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from repro.errors import ReproError, ValidationError
from repro.fleet.model import COMPACT_STATE_FIELDS, FleetConfig, TABLE_COLUMNS
from repro.simulation.taps import CATALOG_EVENT_KINDS, FLEET_EVENT_KINDS

#: Bump when the record layout changes incompatibly.
TRACE_SCHEMA_VERSION = 2

#: Schema versions this reader still accepts (v1 = fleet-only, no
#: ``trace_type``, no chunking).
SUPPORTED_SCHEMAS = (1, 2)

#: The two workload planes a trace can capture.
TRACE_TYPES = ("fleet", "catalog")

#: Every event kind a *fleet* trace may contain (the header is not an
#: event) — exactly what the fleet publishes, so recorder subscriptions
#: and reader validation can never drift from the producers.
TRACE_EVENT_KINDS = FLEET_EVENT_KINDS

#: Every event kind a *catalog* trace may contain: the published catalog
#: events plus the recorder-written ``checkpoint``.
CATALOG_TRACE_EVENT_KINDS = CATALOG_EVENT_KINDS + ("checkpoint",)

#: Transaction operations a ``table_commit`` event may carry.
COMMIT_OPERATIONS = ("append", "overwrite", "delete", "rowdelta", "replace")


class TraceValidationError(ReproError):
    """A trace failed schema or ordering validation.

    Attributes:
        line: 1-based logical record number of the offending record
            (0 = whole file; for chunked traces the count runs across the
            manifest and its segments in read order).
    """

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"trace line {line}: {message}" if line else message)
        self.line = line


def canonical_json(record: dict) -> str:
    """Canonical single-line JSON: sorted keys, minimal separators."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def serialize_cycle_report(report) -> dict:
    """A :class:`~repro.core.pipeline.CycleReport` as a canonical dict.

    Every decision-relevant field is included — counts, the selection in
    rank order, and each execution result — so two replays agree on this
    serialization iff they made identical decisions with identical
    outcomes.  :meth:`ReplayResult.report_bytes` hashes replays down to
    these dicts for the byte-identical-replay guarantee.
    """
    return {
        "cycle_index": report.cycle_index,
        "started_at": report.started_at,
        "candidates_generated": report.candidates_generated,
        "after_stats_filters": report.after_stats_filters,
        "ranked": report.ranked,
        "selected": [str(key) for key in report.selected],
        "results": [
            {
                "candidate": str(result.candidate),
                "success": result.success,
                "skipped": result.skipped,
                "started_at": result.started_at,
                "finished_at": result.finished_at,
                "gbhr": result.gbhr,
                "files_before": result.files_before,
                "files_after": result.files_after,
                "estimated_reduction": result.estimated_reduction,
                "actual_reduction": result.actual_reduction,
                "rewritten_bytes": result.rewritten_bytes,
                "estimated_gbhr": result.estimated_gbhr,
            }
            for result in report.results
        ],
    }


@dataclass
class Trace:
    """A parsed, validated trace: header plus events in capture order."""

    header: dict
    events: list[dict] = field(default_factory=list)

    @property
    def seed(self) -> int:
        """The source run's root seed."""
        return int(self.header["seed"])

    @property
    def schema(self) -> int:
        """The trace's schema version."""
        return int(self.header["schema"])

    @property
    def trace_type(self) -> str:
        """``fleet`` or ``catalog`` (v1 traces are always fleet)."""
        return str(self.header.get("trace_type", "fleet"))

    def config(self) -> FleetConfig:
        """The source run's :class:`~repro.fleet.model.FleetConfig`.

        Raises:
            ValidationError: for catalog traces, which carry catalog
                metadata instead of a fleet config.
        """
        if self.trace_type != "fleet":
            raise ValidationError("catalog traces carry no FleetConfig")
        return FleetConfig(**self.header["config"])

    @property
    def days(self) -> int:
        """Number of recorded write days (fleet) or cycle markers (catalog)."""
        kind = "day" if self.trace_type == "fleet" else "cycle"
        return sum(1 for event in self.events if event["kind"] == kind)

    def ingested_bytes(self, perturb=None) -> int:
        """Total bytes the recorded workload wrote (onboard backlog excluded).

        For fleet traces, derived from the ``day`` events exactly as the
        fleet model derives byte deltas from file deltas; for catalog
        traces, the sum of added-file sizes across non-rewrite commits.
        Either way it is the denominator of the what-if runner's
        write-amplification metric.  ``perturb`` (a
        :class:`~repro.replay.perturb.Perturbation` or compatible hook)
        is applied to each workload event first, so perturbed replays are
        scored against the workload they actually saw.
        """
        total = 0
        if self.trace_type == "fleet":
            from repro.fleet.model import LARGE_MEAN_BYTES, MID_MEAN_BYTES, TINY_MEAN_BYTES

            for event in self.events:
                if event["kind"] != "day":
                    continue
                if perturb is not None:
                    event = perturb.transform_day(event)
                total += sum(event["tiny"]) * TINY_MEAN_BYTES
                total += sum(event["mid"]) * MID_MEAN_BYTES
                total += sum(event["large"]) * LARGE_MEAN_BYTES
            return total
        for event in self.events:
            if event["kind"] != "table_commit" or event["op"] == "replace":
                continue
            if perturb is not None:
                event = perturb.transform_commit(event)
            total += sum(size for _, size in event["added"])
            total += sum(size for _, size, _ in event["deletes"])
        return total


def trace_size_bytes(path: str | os.PathLike) -> int:
    """On-disk bytes of a trace: the file itself plus any segments.

    For chunked traces this follows the manifest's segment index; for
    single-file traces it is just the file size.  Benches use it to
    compare trace formats fairly.
    """
    path = os.fspath(path)
    total = os.path.getsize(path)
    base_dir = os.path.dirname(path) or "."
    with open(path, "r", encoding="utf-8") as stream:
        try:
            header = json.loads(stream.readline())
        except json.JSONDecodeError:
            return total
        if not (isinstance(header, dict) and header.get("chunked") is True):
            # Only chunked manifests carry segment records; a plain trace
            # is just its own file size — no need to scan every line.
            return total
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and record.get("kind") == "segment":
                segment = os.path.join(base_dir, record["path"])
                if os.path.exists(segment):
                    total += os.path.getsize(segment)
    return total


class TraceWriter:
    """Streams trace records to a file path or text stream.

    Args:
        sink: a path (opened/truncated on first write, closed by
            :meth:`close`) or an open text stream (left open).
        segment_records: when set, the writer runs *chunked*: events go to
            numbered segment files next to the manifest, auto-rotating
            every ``segment_records`` events.  Requires a path sink.
        compress: gzip each segment (deterministically — the gzip mtime is
            pinned to 0, so identical records yield identical bytes).
            Implies chunked mode; requires a path sink.

    In chunked mode the main file holds the header (stamped with a
    ``chunked`` flag) followed by one ``segment`` index record per sealed
    segment; :meth:`rotate` seals the current segment explicitly (the
    :class:`~repro.replay.catalog_trace.CatalogTraceRecorder` rotates at
    checkpoint boundaries).
    """

    def __init__(
        self,
        sink: str | os.PathLike | IO[str],
        segment_records: int | None = None,
        compress: bool = False,
    ) -> None:
        if segment_records is not None and segment_records <= 0:
            raise ValidationError("segment_records must be positive")
        self._segment_records = segment_records
        self._compress = bool(compress)
        self._chunked = segment_records is not None or self._compress
        if isinstance(sink, (str, os.PathLike)):
            self._path: str | None = os.fspath(sink)
            self._stream: IO[str] = open(self._path, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            if self._chunked:
                raise ValidationError(
                    "chunked/compressed traces need a file-path sink "
                    "(segments are written next to the manifest)"
                )
            self._path = None
            self._stream = sink
            self._owns_stream = False
        self.records_written = 0
        self.segments_sealed = 0
        self._segment_index = 0
        self._segment_stream: IO[str] | None = None
        self._segment_raw: IO[bytes] | None = None
        self._segment_name: str | None = None
        self._segment_count = 0

    @property
    def chunked(self) -> bool:
        """Whether this writer splits events into segment files."""
        return self._chunked

    def write(self, record: dict) -> None:
        """Append one record as a canonical JSON line."""
        if self._chunked and record.get("kind") != "header":
            self._write_segment_record(record)
        else:
            if self._chunked:
                record = {**record, "chunked": True}
            self._stream.write(canonical_json(record))
            self._stream.write("\n")
        self.records_written += 1

    # --- chunking ---------------------------------------------------------------

    def _open_segment(self) -> None:
        assert self._path is not None
        suffix = ".gz" if self._compress else ""
        self._segment_name = (
            f"{os.path.basename(self._path)}.seg{self._segment_index:04d}{suffix}"
        )
        segment_path = os.path.join(os.path.dirname(self._path) or ".", self._segment_name)
        if self._compress:
            raw = open(segment_path, "wb")
            # filename="" and mtime=0 pin the gzip header, keeping
            # compressed traces byte-reproducible across runs.
            gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
            self._segment_raw = raw
            self._segment_stream = io.TextIOWrapper(gz, encoding="utf-8", newline="")
        else:
            self._segment_raw = None
            self._segment_stream = open(segment_path, "w", encoding="utf-8")
        self._segment_count = 0

    def _write_segment_record(self, record: dict) -> None:
        if self._segment_stream is None:
            self._open_segment()
        assert self._segment_stream is not None
        self._segment_stream.write(canonical_json(record))
        self._segment_stream.write("\n")
        self._segment_count += 1
        if self._segment_records is not None and self._segment_count >= self._segment_records:
            self.rotate()

    def rotate(self) -> None:
        """Seal the current segment and append its index record (chunked only).

        A no-op when no events were written since the last rotation, so
        callers can rotate on a schedule without creating empty segments.

        Raises:
            ValidationError: on a non-chunked writer.
        """
        if not self._chunked:
            raise ValidationError(
                "rotate() requires a chunked TraceWriter "
                "(pass segment_records= or compress=)"
            )
        if self._segment_stream is None:
            return
        self._segment_stream.close()
        if self._segment_raw is not None:
            self._segment_raw.close()
        self._stream.write(
            canonical_json(
                {
                    "kind": "segment",
                    "path": self._segment_name,
                    "records": self._segment_count,
                    "codec": "gzip" if self._compress else "none",
                }
            )
        )
        self._stream.write("\n")
        self._segment_stream = None
        self._segment_raw = None
        self._segment_index += 1
        self.segments_sealed += 1

    def close(self) -> None:
        """Seal any open segment, flush, and close owned streams."""
        if self._chunked and self._segment_stream is not None:
            self.rotate()
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


class TraceReader:
    """Parses and validates a JSONL trace (single-file or chunked).

    Validation covers structure (header first, supported schema version,
    known event kinds per trace type, required fields per kind) and
    ordering (fleet event days / catalog event times non-decreasing,
    onboard column lengths consistent), failing fast with the offending
    record number.  Chunked traces must be read from their manifest path;
    segment files are followed transparently and their declared record
    counts verified.
    """

    def __init__(self, source: str | os.PathLike | IO[str] | Iterable[str]) -> None:
        self._source = source

    def _segment_lines(self, record: dict, base_dir: str, line: int) -> Iterator[str]:
        name = record.get("path")
        if not isinstance(name, str) or not name:
            raise TraceValidationError("segment record needs a 'path'", line)
        segment_path = os.path.join(base_dir, name)
        if not os.path.exists(segment_path):
            raise TraceValidationError(f"segment file {name!r} is missing", line)
        codec = record.get("codec", "none")
        count = 0
        if codec == "gzip":
            stream: IO[str] = io.TextIOWrapper(
                gzip.open(segment_path, "rb"), encoding="utf-8"
            )
        elif codec == "none":
            stream = open(segment_path, "r", encoding="utf-8")
        else:
            raise TraceValidationError(f"unknown segment codec {codec!r}", line)
        with stream:
            for segment_line in stream:
                count += 1
                yield segment_line
        declared = record.get("records")
        if isinstance(declared, int) and declared != count:
            raise TraceValidationError(
                f"segment {name!r} holds {count} records, manifest declares {declared}",
                line,
            )

    def _lines(self) -> Iterator[str]:
        source = self._source
        if isinstance(source, (str, os.PathLike)):
            path = os.fspath(source)
            base_dir = os.path.dirname(path) or "."
            with open(path, "r", encoding="utf-8") as stream:
                first = stream.readline()
                if not first:
                    return
                yield first
                chunked = False
                try:
                    head = json.loads(first)
                    chunked = isinstance(head, dict) and head.get("chunked") is True
                except json.JSONDecodeError:
                    pass  # read() reports the malformed header itself
                if not chunked:
                    yield from stream
                    return
                line_number = 1
                for manifest_line in stream:
                    line_number += 1
                    stripped = manifest_line.strip()
                    if not stripped:
                        continue
                    try:
                        record = json.loads(stripped)
                    except json.JSONDecodeError:
                        yield manifest_line  # read() reports it with context
                        continue
                    if isinstance(record, dict) and record.get("kind") == "segment":
                        yield from self._segment_lines(record, base_dir, line_number)
                    else:
                        yield manifest_line
        elif isinstance(source, io.TextIOBase):
            # Rewind seekable streams so repeated reads see the whole
            # trace; pipes and chained readers are consumed from their
            # current position instead of raising on seek().
            if source.seekable():
                source.seek(0)
            yield from source
        else:
            yield from source

    def read(self) -> Trace:
        """Parse the whole trace, validating as it goes.

        Raises:
            TraceValidationError: on any schema or ordering violation.
        """
        header: dict | None = None
        trace_type = "fleet"
        events: list[dict] = []
        last_marker: float = float("-inf")
        for line_number, line in enumerate(self._lines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceValidationError(f"invalid JSON: {error}", line_number) from None
            if not isinstance(record, dict) or "kind" not in record:
                raise TraceValidationError("record must be an object with a 'kind'", line_number)
            kind = record["kind"]
            if header is None:
                if kind != "header":
                    raise TraceValidationError(
                        f"first record must be the header, got {kind!r}", line_number
                    )
                self._validate_header(record, line_number)
                header = record
                trace_type = str(record.get("trace_type", "fleet"))
                continue
            if kind == "header":
                raise TraceValidationError("duplicate header", line_number)
            if kind == "segment":
                # Path-based reads splice segments out in _lines(); seeing
                # one here means the manifest was fed in as a raw stream.
                raise TraceValidationError(
                    "chunked traces must be read from their manifest path "
                    "(segment records cannot be resolved from a stream)",
                    line_number,
                )
            expected = (
                CATALOG_TRACE_EVENT_KINDS if trace_type == "catalog" else TRACE_EVENT_KINDS
            )
            if kind not in expected:
                raise TraceValidationError(
                    f"unknown event kind {kind!r}; expected one of {expected}",
                    line_number,
                )
            if trace_type == "catalog":
                marker = self._validate_catalog_event(record, line_number)
            else:
                marker = float(self._validate_event(record, line_number))
            if marker < last_marker:
                axis = "times" if trace_type == "catalog" else "days"
                raise TraceValidationError(
                    f"event {axis} must be non-decreasing "
                    f"({marker:g} after {last_marker:g})",
                    line_number,
                )
            last_marker = marker
            events.append(record)
        if header is None:
            raise TraceValidationError("empty trace (no header)")
        return Trace(header=header, events=events)

    @staticmethod
    def _validate_header(record: dict, line: int) -> None:
        schema = record.get("schema")
        if schema not in SUPPORTED_SCHEMAS:
            raise TraceValidationError(
                f"unsupported schema version {schema!r} "
                f"(this reader supports {SUPPORTED_SCHEMAS})",
                line,
            )
        if "seed" not in record:
            raise TraceValidationError("header missing 'seed'", line)
        trace_type = record.get("trace_type", "fleet")
        if trace_type not in TRACE_TYPES:
            raise TraceValidationError(
                f"unknown trace_type {trace_type!r}; expected one of {TRACE_TYPES}",
                line,
            )
        if schema == 1 and trace_type != "fleet":
            raise TraceValidationError("schema v1 traces are always fleet traces", line)
        if trace_type == "fleet":
            if "config" not in record:
                raise TraceValidationError("header missing 'config'", line)
            try:
                FleetConfig(**record["config"])
            except TypeError as error:
                raise TraceValidationError(f"header config invalid: {error}", line) from None
        else:
            if not isinstance(record.get("catalog"), dict):
                raise TraceValidationError(
                    "catalog trace header needs a 'catalog' mapping", line
                )

    @staticmethod
    def _validate_event(record: dict, line: int) -> int:
        kind = record["kind"]
        day = record.get("day")
        if not isinstance(day, int) or day < 0:
            raise TraceValidationError(f"{kind} event needs a non-negative integer day", line)
        if kind == "onboard":
            columns = record.get("columns")
            if not isinstance(columns, dict):
                raise TraceValidationError("onboard event needs a columns mapping", line)
            missing = [name for name in TABLE_COLUMNS if name not in columns]
            if missing:
                raise TraceValidationError(f"onboard columns missing {missing}", line)
            lengths = {len(columns[name]) for name in TABLE_COLUMNS}
            if len(lengths) != 1:
                raise TraceValidationError(
                    f"onboard column lengths differ: {sorted(lengths)}", line
                )
            if record.get("count") != lengths.pop():
                raise TraceValidationError("onboard count does not match column length", line)
        elif kind == "day":
            for name in ("indices", "tiny", "mid", "large"):
                if not isinstance(record.get(name), list):
                    raise TraceValidationError(f"day event needs list {name!r}", line)
            n = len(record["indices"])
            if any(len(record[name]) != n for name in ("tiny", "mid", "large")):
                raise TraceValidationError("day event delta lists must align", line)
        elif kind == "compact":
            state = record.get("state")
            if not isinstance(state, dict):
                raise TraceValidationError("compact event needs a state mapping", line)
            missing = [name for name in COMPACT_STATE_FIELDS if name not in state]
            if missing:
                raise TraceValidationError(f"compact state missing {missing}", line)
            if not isinstance(record.get("index"), int):
                raise TraceValidationError("compact event needs an integer index", line)
        return day

    @staticmethod
    def _validate_catalog_event(record: dict, line: int) -> float:
        kind = record["kind"]
        t = record.get("t")
        if not isinstance(t, (int, float)) or t < 0:
            raise TraceValidationError(
                f"{kind} event needs a non-negative time 't'", line
            )
        if kind == "db_create":
            if not record.get("name"):
                raise TraceValidationError("db_create event needs a 'name'", line)
        elif kind == "table_create":
            for name in ("database", "table", "format"):
                if not record.get(name):
                    raise TraceValidationError(f"table_create event needs {name!r}", line)
            for name in ("schema", "spec"):
                if not isinstance(record.get(name), list):
                    raise TraceValidationError(f"table_create event needs list {name!r}", line)
            for name in ("properties", "policy"):
                if not isinstance(record.get(name), dict):
                    raise TraceValidationError(
                        f"table_create event needs mapping {name!r}", line
                    )
        elif kind == "table_commit":
            for name in ("database", "table"):
                if not record.get(name):
                    raise TraceValidationError(f"table_commit event needs {name!r}", line)
            if record.get("op") not in COMMIT_OPERATIONS:
                raise TraceValidationError(
                    f"table_commit op must be one of {COMMIT_OPERATIONS}, "
                    f"got {record.get('op')!r}",
                    line,
                )
            for name in ("added", "deletes", "removed"):
                if not isinstance(record.get(name), list):
                    raise TraceValidationError(f"table_commit event needs list {name!r}", line)
            version = record.get("version")
            if not isinstance(version, int) or version < 1:
                raise TraceValidationError(
                    "table_commit event needs a positive integer version", line
                )
        elif kind == "cycle":
            if not isinstance(record.get("report"), dict):
                raise TraceValidationError(
                    "catalog cycle event needs a 'report' mapping", line
                )
        elif kind == "checkpoint":
            if not isinstance(record.get("databases"), list):
                raise TraceValidationError("checkpoint event needs a 'databases' list", line)
        return float(t)
