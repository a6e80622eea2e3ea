"""Metrics exporter: Prometheus text exposition + JSONL snapshots.

The :class:`MetricsExporter` is the daemon's bridge from the in-process
:class:`~repro.simulation.telemetry.Telemetry` sink to on-disk files a
scrape job, dashboard or human can read while the daemon keeps running:

- ``metrics.prom`` — the whole sink in Prometheus text exposition format
  (counters → ``counter``, series → last-value ``gauge``, histograms →
  ``_bucket``/``_sum``/``_count`` families).
- ``metrics.jsonl`` — timestamped snapshots, one JSON object per line
  (counters, last series values, histogram summaries).
- ``trace.jsonl`` — the attached tracer's spans, one per line, when a
  tracer is wired in.
- ``status.json`` — the daemon's ``status()`` report as compact JSON,
  when wired in.

An export costs O(metrics), not O(history): :meth:`Telemetry.snapshot`
copies only each series' last point, the text that depends only on
metric names (``HELP``/``TYPE`` lines, bucket labels) is cached for the
exporter's life, and JSON goes through the C encoder (:func:`encode_json`).
``metrics.prom`` and ``status.json`` are small: an export writes one to
a temp path and atomically renames it into place, so a reader never
sees a half-written exposition, and skips the write when the text is
what this exporter last wrote there and the file is still present.
The two JSONL files grow, so each export
appends only its new lines to them through an
:class:`~repro.obs.tracing.AppendLog`, which rolls a file to ``<name>.1``
at its line cap (:data:`SNAPSHOT_RING` snapshots, the tracer's
:data:`~repro.obs.tracing.SPAN_RING` spans).  Readers
(:mod:`repro.obs.status`) read the ``.1`` segment then the live one and
skip a torn trailing line.  The Chrome trace is rendered on demand:
``python -m repro.obs.status <dir> --chrome OUT``.
"""

from __future__ import annotations

import inspect
import json
import math
import operator
import os
import re
import threading
import time
import weakref
from itertools import accumulate
from typing import Callable

from repro import durable
from repro.obs.tracing import AppendLog
from repro.simulation.telemetry import Telemetry

__all__ = [
    "MetricsExporter",
    "encode_json",
    "prom_name",
    "render_prometheus",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: Lines per ``metrics.jsonl`` segment: one snapshot per export, rolled
#: to ``metrics.jsonl.1`` when full.
SNAPSHOT_RING = 4096


def prom_name(name: str) -> str:
    """Map a dotted metric name to a valid Prometheus metric name."""
    candidate = _NAME_SANITIZE.sub("_", name)
    if not _NAME_OK.match(candidate):
        candidate = f"_{candidate}"
    return candidate


#: Prometheus spellings of the non-finite values ``repr`` writes.
_NON_FINITE = {"nan": "NaN", "inf": "+Inf", "-inf": "-Inf"}


def _format_value(value: float) -> str:
    formatted = repr(float(value))
    if formatted.endswith(".0"):
        return formatted[:-2]
    return _NON_FINITE.get(formatted, formatted)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _help_for(name: str) -> str:
    from repro.obs import METRICS  # lazy: the registry lives in the package root

    spec = METRICS.get(name)
    if spec is not None:
        return spec[1]
    return f"autocomp metric {name}"


def render_prometheus(telemetry: Telemetry) -> str:
    """Render the whole sink as Prometheus text exposition format.

    Counters render as ``counter``, series as a ``gauge`` holding the most
    recent value, histograms as full ``_bucket``/``_sum``/``_count``
    families.  Name collisions after sanitisation (two dotted names
    mapping to one Prometheus name, or a histogram whose family names
    collide with a counter) are skipped with an explanatory comment rather
    than emitting an invalid exposition.
    """
    return _PromRenderer().render(telemetry.snapshot())


class _PromRenderer:
    """Renders telemetry snapshots, caching the text that depends only on names.

    Per metric name it keeps the Prometheus name, the ``HELP``/``TYPE``
    lines and, for counters and gauges, the value line's prefix; per
    ``(base, bounds)`` the bucket, sum and count line prefixes, ``le="…"``
    labels included.  Both caches hold one entry per metric the sink has
    held, so an exporter that owns a renderer keeps it as long as the sink
    it renders.
    """

    def __init__(self) -> None:
        self._heads: dict[tuple[str, str], tuple[str, str]] = {}
        self._buckets: dict[tuple[str, tuple[float, ...]], tuple[tuple[str, ...], str, str]] = {}

    def _head(self, name: str, kind: str) -> tuple[str, str]:
        """``(base, text)``: the HELP and TYPE lines, then a counter's or
        gauge's value-line prefix (``base`` and a space)."""
        key = (name, kind)
        head = self._heads.get(key)
        if head is None:
            base = prom_name(name)
            value_prefix = "" if kind == "histogram" else f"\n{base} "
            head = self._heads[key] = (
                base,
                f"# HELP {base} {_escape_help(_help_for(name))}\n"
                f"# TYPE {base} {kind}{value_prefix}",
            )
        return head

    def _bucket_prefixes(
        self, base: str, bounds: tuple[float, ...]
    ) -> tuple[tuple[str, ...], str, str]:
        """``(bucket_prefixes, sum_prefix, count_prefix)``; the last bucket is ``+Inf``."""
        key = (base, bounds)
        prefixes = self._buckets.get(key)
        if prefixes is None:
            labels = [_format_value(bound) for bound in bounds] + ["+Inf"]
            prefixes = self._buckets[key] = (
                tuple(f'{base}_bucket{{le="{label}"}} ' for label in labels),
                f"{base}_sum ",
                f"{base}_count ",
            )
        return prefixes

    def render(self, snap: dict) -> str:
        lines: list[str] = []
        emitted: set[str] = set()

        def claim(*names: str) -> bool:
            if emitted.isdisjoint(names):
                emitted.update(names)
                return True
            return False

        def skipped(base: str, name: str) -> None:
            lines.append(f"# skipped duplicate metric name {base} (from {name})")

        counters = snap["counters"]
        for name in sorted(counters):
            base, head = self._head(name, "counter")
            if claim(base):
                lines.append(head + _format_value(counters[name]))
            else:
                skipped(base, name)

        series = snap["series"]
        for name in sorted(series):
            base, head = self._head(name, "gauge")
            if claim(base):
                values = series[name][1]
                lines.append(head + _format_value(values[-1] if values else math.nan))
            else:
                skipped(base, name)

        histograms = snap["histograms"]
        for name in sorted(histograms):
            hist = histograms[name]
            base, head = self._head(name, "histogram")
            if not claim(base, f"{base}_bucket", f"{base}_sum", f"{base}_count"):
                skipped(base, name)
                continue
            buckets, sum_prefix, count_prefix = self._bucket_prefixes(base, hist.bounds)
            lines.append(head)
            lines.extend(map(operator.add, buckets, map(str, accumulate(hist.counts))))
            lines.append(sum_prefix + _format_value(hist.total))
            lines.append(f"{count_prefix}{hist.count}")

        return "\n".join(lines) + "\n"


class MetricsExporter:
    """Periodically snapshot a telemetry sink (and tracer) to files.

    Runs a daemon thread that calls :meth:`export_once` every
    ``interval_s`` seconds; :meth:`stop` performs one final export so the
    on-disk state always reflects the shutdown moment.  Also usable
    one-shot (construct, call :meth:`export_once`) without starting the
    thread.

    Each export writes what is new since the last one: one telemetry
    snapshot is taken, encoded and appended to ``metrics.jsonl``, and the
    tracer appends only the spans finished since its last dump.  The
    first export starts both logs fresh.  Spans the tracer evicted before
    dumping them are published as ``autocomp.obs.spans_dropped``.
    Exports are serialised by a lock, so the thread, a direct call and
    :meth:`stop` never interleave.  A bound-method ``status_fn``
    is held weakly, so the exporter never keeps its owner (the daemon)
    alive.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        out_dir: str,
        tracer=None,
        interval_s: float = 10.0,
        status_fn: Callable[[], dict] | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"export interval must be positive, got {interval_s}")
        self.telemetry = telemetry
        self.out_dir = out_dir
        self.tracer = tracer
        self.interval_s = interval_s
        self._status_fn = (
            weakref.WeakMethod(status_fn) if inspect.ismethod(status_fn) else status_fn
        )
        self.exports = 0
        self.export_errors = 0
        self._clock = clock
        self._snapshot_log = AppendLog(self.jsonl_path, SNAPSHOT_RING)
        self._dropped_published = 0
        self._renderer = _PromRenderer()
        self._last_written: dict[str, str] = {}
        self._export_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def status_fn(self) -> Callable[[], dict] | None:
        """The status callable (None once a weakly held owner is gone)."""
        fn = self._status_fn
        return fn() if isinstance(fn, weakref.WeakMethod) else fn

    # --- paths ----------------------------------------------------------------

    @property
    def prom_path(self) -> str:
        return os.path.join(self.out_dir, "metrics.prom")

    @property
    def jsonl_path(self) -> str:
        return os.path.join(self.out_dir, "metrics.jsonl")

    @property
    def trace_jsonl_path(self) -> str:
        return os.path.join(self.out_dir, "trace.jsonl")

    @property
    def status_path(self) -> str:
        return os.path.join(self.out_dir, "status.json")

    # --- exporting ------------------------------------------------------------

    def export_once(self) -> dict[str, str]:
        """Write every export file now; returns ``{kind: path}``."""
        with self._export_lock:
            return self._export()

    def _export(self) -> dict[str, str]:
        os.makedirs(self.out_dir, exist_ok=True)
        written: dict[str, str] = {}

        tracer = self.tracer
        if tracer is not None:
            dropped = tracer.dropped
            if dropped > self._dropped_published:
                self.telemetry.increment(
                    "autocomp.obs.spans_dropped", dropped - self._dropped_published
                )
                self._dropped_published = dropped

        # One snapshot feeds both the exposition and the metrics.jsonl line.
        snap = self.telemetry.snapshot()
        self._write_if_changed(self.prom_path, self._renderer.render(snap))
        written["prom"] = self.prom_path

        entry = {
            "ts": self._clock(),
            "counters": snap["counters"],
            "series_last": {
                name: (values[-1] if values else None)
                for name, (_, values) in snap["series"].items()
            },
            "histograms": {
                name: hist.summary()
                for name, hist in snap["histograms"].items()
            },
        }
        self._snapshot_log.write([encode_json(entry) + "\n"])
        written["jsonl"] = self.jsonl_path

        if tracer is not None:
            tracer.dump_jsonl(self.trace_jsonl_path)
            written["trace_jsonl"] = self.trace_jsonl_path

        status_fn = self.status_fn
        if status_fn is not None:
            self._write_if_changed(self.status_path, encode_json(status_fn()) + "\n")
            written["status"] = self.status_path

        self.exports += 1
        return written

    def _write_if_changed(self, path: str, text: str) -> None:
        """Atomically replace ``path`` with ``text``, unless this exporter
        last wrote exactly ``text`` there and the file is still present."""
        if self._last_written.get(path) == text and os.path.exists(path):
            return
        durable.atomic_write(path, text)
        self._last_written[path] = text

    # --- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the periodic export thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="autocomp-metrics-exporter", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and write one final export (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(5.0, self.interval_s * 2))
            self._thread = None
        try:
            self.export_once()
        except OSError:
            self.export_errors += 1

    def __enter__(self) -> "MetricsExporter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.export_once()
            except OSError:
                # Disk hiccups must not kill the export cadence.
                self.export_errors += 1


def encode_json(value) -> str:
    """Compact, key-sorted JSON text; non-finite floats become ``null``.

    The C encoder does the work; only a value holding a NaN or an infinity
    is walked by :func:`_json_safe` and encoded again.
    """
    try:
        return json.dumps(value, sort_keys=True, allow_nan=False)
    except ValueError:
        return json.dumps(_json_safe(value), sort_keys=True)


def _json_safe(value):
    """Recursively replace non-finite floats (JSON has no NaN/Inf)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value
