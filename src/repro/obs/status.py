"""Read back an observability directory: ``python -m repro.obs.status <dir>``.

The daemon's :class:`~repro.obs.exporter.MetricsExporter` leaves a
self-describing directory behind (``status.json``, ``metrics.prom``,
``metrics.jsonl``, ``trace.jsonl``, and ``.1`` segments of the two JSONL
logs once they roll); this module is the operator's view of it — a
one-screen summary of what the daemon was doing at its last export,
without attaching to the process.

The JSONL logs are read while the daemon may be appending to them:
:func:`log_lines` reads the ``.1`` segment, then the live file, and keeps
only newline-terminated lines, so a torn trailing line is skipped.

Exit code 0 when ``status.json`` is present and parseable, 1 otherwise —
so the CLI doubles as a liveness probe for the export pipeline itself.

``--chrome OUT`` instead renders the span log as Chrome ``trace_event``
JSON at ``OUT``, which Perfetto (https://ui.perfetto.dev) and
``chrome://tracing`` open directly; exit code 1 when the directory holds
no span log or a span line does not parse.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro import durable
from repro.obs.tracing import Span, chrome_document

__all__ = ["load_status_dir", "format_status", "log_lines", "main", "render_chrome"]


def log_lines(path: str) -> list[str]:
    """The whole non-blank lines of ``<path>.1`` then ``path``.

    A missing segment reads as empty; a trailing line without its newline
    (a write still in flight) is skipped.
    """
    lines: list[str] = []
    for segment in (f"{path}.1", path):
        try:
            with open(segment, "r", encoding="utf-8") as stream:
                lines.extend(line for line in stream if line.endswith("\n") and line.strip())
        except FileNotFoundError:
            pass
    return lines


def load_status_dir(path: str) -> dict:
    """Collect everything readable from an exporter output directory.

    Returns a dict with ``status`` (parsed ``status.json`` or None),
    ``metrics_prom`` (sample-line count or None), ``snapshots`` (line
    count of ``metrics.jsonl`` and its ``.1`` segment), ``last_snapshot``
    (the newest parsed line), ``trace_spans`` (line count of
    ``trace.jsonl`` and its ``.1`` segment), and ``errors``.
    """
    out: dict = {
        "dir": path,
        "status": None,
        "metrics_prom": None,
        "snapshots": 0,
        "last_snapshot": None,
        "trace_spans": 0,
        "errors": [],
    }
    status_path = os.path.join(path, "status.json")
    try:
        with open(status_path, "r", encoding="utf-8") as stream:
            out["status"] = json.load(stream)
    except FileNotFoundError:
        out["errors"].append(f"missing {status_path}")
    except (OSError, ValueError) as exc:
        out["errors"].append(f"unreadable {status_path}: {exc}")

    prom_path = os.path.join(path, "metrics.prom")
    try:
        with open(prom_path, "r", encoding="utf-8") as stream:
            out["metrics_prom"] = sum(
                1
                for line in stream
                if line.strip() and not line.startswith("#")
            )
    except OSError:
        pass

    jsonl_path = os.path.join(path, "metrics.jsonl")
    try:
        snapshots = log_lines(jsonl_path)
    except OSError:
        snapshots = []
    out["snapshots"] = len(snapshots)
    if snapshots:
        try:
            out["last_snapshot"] = json.loads(snapshots[-1])
        except ValueError:
            out["errors"].append(f"corrupt last line in {jsonl_path}")

    try:
        out["trace_spans"] = len(log_lines(os.path.join(path, "trace.jsonl")))
    except OSError:
        pass

    return out


def render_chrome(path: str, out: str) -> tuple[int, list[str]]:
    """Render the span log under ``path`` as Chrome JSON at ``out``.

    Returns ``(events written, errors)``; a span line that does not parse
    is reported and left out.
    """
    trace_path = os.path.join(path, "trace.jsonl")
    if not any(os.path.exists(p) for p in (trace_path, f"{trace_path}.1")):
        return 0, [f"missing {trace_path}"]
    events, errors = [], []
    for number, line in enumerate(log_lines(trace_path), 1):
        try:
            events.append(Span.from_dict(json.loads(line)).to_chrome_event())
        except (ValueError, TypeError, KeyError) as exc:
            errors.append(f"corrupt span line {number} in {trace_path}: {exc!r}")
    durable.atomic_write(out, chrome_document(events))
    return len(events), errors


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)


def format_status(loaded: dict) -> str:
    """Render :func:`load_status_dir` output as a one-screen report."""
    lines = [f"observability dir: {loaded['dir']}"]
    status = loaded.get("status")
    if status:
        for key in (
            "owner",
            "running",
            "cycles_run",
            "cycle_errors",
            "cycle_in_flight",
            "overlap_skips",
            "interval_s",
        ):
            if key in status:
                lines.append(f"  {key}: {_fmt(status[key])}")
        held = status.get("held_locks")
        if held is not None:
            lines.append(f"  held_locks: {', '.join(held) if held else '(none)'}")
        summaries = status.get("histograms") or {}
        if summaries:
            lines.append("  last-export histogram summaries:")
            for name in sorted(summaries):
                s = summaries[name]
                lines.append(
                    f"    {name}: count={_fmt(s.get('count'))}"
                    f" p50={_fmt(s.get('p50'))} p95={_fmt(s.get('p95'))}"
                    f" p99={_fmt(s.get('p99'))} max={_fmt(s.get('max'))}"
                )
    else:
        lines.append("  (no status.json)")
    lines.append(
        f"  exports: {loaded['snapshots']} snapshots,"
        f" {_fmt(loaded['metrics_prom'])} prometheus samples,"
        f" {loaded['trace_spans']} trace spans"
    )
    for error in loaded["errors"]:
        lines.append(f"  ERROR: {error}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="summarise an AutoComp observability directory"
    )
    parser.add_argument("dir", help="exporter output directory")
    parser.add_argument(
        "--json", action="store_true", help="emit the raw collected dict as JSON"
    )
    parser.add_argument(
        "--chrome",
        metavar="OUT",
        help="render the span log as Chrome trace_event JSON at OUT (Perfetto-openable)",
    )
    args = parser.parse_args(argv)
    if args.chrome:
        count, errors = render_chrome(args.dir, args.chrome)
        print(f"wrote {count} trace events to {args.chrome}")
        for error in errors:
            print(f"ERROR: {error}")
        return 1 if errors else 0
    loaded = load_status_dir(args.dir)
    if args.json:
        print(json.dumps(loaded, indent=2, sort_keys=True, default=str))
    else:
        print(format_status(loaded))
    return 1 if loaded["status"] is None else 0


if __name__ == "__main__":
    sys.exit(main())
