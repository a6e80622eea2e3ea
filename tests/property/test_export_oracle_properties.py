"""Oracle test: exports write the bytes a simple model predicts.

The tracer appends each span's JSONL line once, when a dump first sees it,
and the exporter appends one ``metrics.jsonl`` line per export; both logs
roll to ``<name>.1`` at their line cap.  This module keeps the simpler
model those replaced — every line re-encoded from scratch, the whole log
kept in a list and cut into the live and rolled segments by arithmetic —
and runs it over random histories of spans (nested, detached, adopted
from a worker), ``clear``, telemetry updates (non-finite values and
names that collide once sanitised included) and exports.  The ring and
both caps are tiny, so eviction and rolling happen often.  After every
export the four log files must be byte-identical to the model, and the
Chrome document the status CLI renders from the trace log must equal, as
parsed JSON, the one the model encodes.

The model also renders ``metrics.prom`` the uncached way, from a copy of
the whole sink with every series' full history, and encodes the status
report through ``_json_safe``; the exposition must match byte for byte,
and ``status.json`` must parse equal.
"""

from __future__ import annotations

import itertools
import json
import math
import os

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.exporter as exporter_module
import repro.obs.tracing as tracing_module
from repro.obs.exporter import MetricsExporter, _json_safe
from repro.obs.status import main as status_main
from repro.obs.tracing import SpanContext, SpanRecorder, Tracer, make_span, timed
from repro.simulation import Histogram, Telemetry
from repro.simulation.telemetry import COUNT_BOUNDS

RING = 3
SPANS = 4

OPS = st.lists(
    st.sampled_from(
        ["span", "nested", "detached", "adopt", "clear", "metric", "collide", "export", "export"]
    ),
    min_size=8,
    max_size=40,
)
VALUES = st.sampled_from([0.0, 1.5, -2.25, 1e-9, 3e12, math.nan, math.inf, -math.inf])
# Names that collide once sanitised: a.b/a_b/a-b, and a histogram family
# (h → h_bucket/h_sum/h_count) against counters and series.
COLLIDING = st.tuples(
    st.sampled_from(["counter", "series", "histogram"]),
    st.sampled_from(
        ["autocomp.a.b", "autocomp.a_b", "autocomp.a-b", "autocomp.h", "autocomp.h_count",
         "autocomp.h.sum", "autocomp.h_bucket", "9lives", "autocomp.hist.cycle_wall_s"]
    ),
)


def reference_trace_jsonl(spans) -> str:
    lines = [json.dumps(span.to_dict(), sort_keys=True) for span in spans]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_trace_chrome(spans) -> str:
    return json.dumps(
        {
            "displayTimeUnit": "ms",
            "traceEvents": [span.to_chrome_event() for span in spans],
        }
    )


def full_snapshot(telemetry: Telemetry) -> dict:
    """A copy of the whole sink, every series' full history included."""
    return {
        "counters": telemetry.counters_with_prefix(""),
        "series": {
            name: (list(telemetry.series(name).times), list(telemetry.series(name).values))
            for name in sorted(telemetry.snapshot()["series"])
        },
        "histograms": {
            name: hist for name, hist in sorted(telemetry.snapshot()["histograms"].items())
        },
    }


def reference_format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    formatted = repr(float(value))
    return formatted[:-2] if formatted.endswith(".0") else formatted


def reference_render_histogram(lines: list[str], base: str, hist: Histogram) -> None:
    cumulative = 0
    for bound, count in zip(hist.bounds, hist.counts):
        cumulative += count
        lines.append(f'{base}_bucket{{le="{reference_format_value(bound)}"}} {cumulative}')
    cumulative += hist.counts[-1]
    lines.append(f'{base}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(f"{base}_sum {reference_format_value(hist.total)}")
    lines.append(f"{base}_count {hist.count}")


def reference_prometheus(telemetry: Telemetry) -> str:
    """The exposition rendered from scratch, nothing cached between calls."""
    snap = full_snapshot(telemetry)
    lines: list[str] = []
    emitted: set[str] = set()

    def claim(*names: str) -> bool:
        if any(n in emitted for n in names):
            return False
        emitted.update(names)
        return True

    def head(name: str, base: str, kind: str) -> None:
        help_text = exporter_module._escape_help(exporter_module._help_for(name))
        lines.append(f"# HELP {base} {help_text}")
        lines.append(f"# TYPE {base} {kind}")

    for name in sorted(snap["counters"]):
        base = exporter_module.prom_name(name)
        if not claim(base):
            lines.append(f"# skipped duplicate metric name {base} (from {name})")
            continue
        head(name, base, "counter")
        lines.append(f"{base} {reference_format_value(snap['counters'][name])}")

    for name in sorted(snap["series"]):
        times, values = snap["series"][name]
        base = exporter_module.prom_name(name)
        if not claim(base):
            lines.append(f"# skipped duplicate metric name {base} (from {name})")
            continue
        head(name, base, "gauge")
        last = values[-1] if values else math.nan
        lines.append(f"{base} {reference_format_value(last)}")

    for name in sorted(snap["histograms"]):
        hist = snap["histograms"][name]
        base = exporter_module.prom_name(name)
        if not claim(base, f"{base}_bucket", f"{base}_sum", f"{base}_count"):
            lines.append(f"# skipped duplicate metric name {base} (from {name})")
            continue
        head(name, base, "histogram")
        reference_render_histogram(lines, base, hist)

    return "\n".join(lines) + "\n"


def reference_status(telemetry: Telemetry, exports: int) -> dict:
    """A status report holding non-finite values and growing with the sink."""
    return {
        "exports": exports,
        "inf": math.inf,
        "series_last": [
            telemetry.series(name).last() for name in sorted(telemetry.snapshot()["series"])
        ],
        "histograms": {
            name: hist.summary()
            for name, hist in sorted(telemetry.snapshot()["histograms"].items())
        },
    }


def reference_entry(telemetry: Telemetry, ts: float) -> dict:
    snap = full_snapshot(telemetry)
    return {
        "ts": ts,
        "counters": snap["counters"],
        "series_last": {
            name: (values[-1] if values else None)
            for name, (_, values) in snap["series"].items()
        },
        "histograms": {name: hist.summary() for name, hist in snap["histograms"].items()},
    }


def reference_metrics_jsonl(entries) -> str:
    return "".join(json.dumps(_json_safe(entry), sort_keys=True) + "\n" for entry in entries)


def segments(log: list, cap: int) -> tuple[list | None, list]:
    """(rolled, live) parts of a log whose file rolls when it would pass ``cap`` lines."""
    live_from = max(0, len(log) - 1) // cap * cap
    rolled = log[live_from - cap:live_from] if live_from else None
    return rolled, log[live_from:]


def read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as stream:
            return stream.read()
    except FileNotFoundError:
        return None


def parsed(text: str):
    return json.loads(text, parse_constant=str)  # NaN == NaN as a string


@settings(max_examples=60, deadline=None)
@given(
    ops=OPS,
    values=st.lists(VALUES, min_size=40, max_size=40),
    collisions=st.lists(COLLIDING, min_size=40, max_size=40),
)
def test_exports_match_full_reencode(tmp_path_factory, ops, values, collisions):
    out_dir = str(tmp_path_factory.mktemp("obs"))
    chrome_path = os.path.join(out_dir, "render.chrome.json")
    original = exporter_module.SNAPSHOT_RING, tracing_module.SPAN_RING
    exporter_module.SNAPSHOT_RING, tracing_module.SPAN_RING = RING, SPANS
    try:
        telemetry = Telemetry()
        tracer = Tracer(clock=itertools.count(1_000.0, 0.125).__next__)
        ticks = itertools.count(0.5)
        exporter = MetricsExporter(
            telemetry,
            out_dir,
            tracer=tracer,
            clock=ticks.__next__,
            status_fn=lambda: reference_status(telemetry, exporter.exports),
        )
        reference_entries: list[dict] = []
        trace_log: list = []  # every span the trace log got since it started fresh
        dumped: set[str] = set()
        for step, (op, value, (kind, name)) in enumerate(zip(ops, values, collisions)):
            if op == "span":
                with timed(tracer, "cycle", step=step, value=value):
                    pass
            elif op == "nested":
                with timed(tracer, "cycle", step=step):
                    with timed(tracer, "observe", tables=[step, value]):
                        pass
                    with timed(tracer, "act", nested={"jobs": step}):
                        pass
            elif op == "detached":
                opened = tracer.begin("rewrite", detached=True, step=step)
                tracer.end(opened, bytes=value)
            elif op == "adopt":
                recorder = SpanRecorder(SpanContext(trace_id="t", span_id="s"))
                with timed(recorder, "observe", shard=step):
                    pass
                tracer.adopt([*recorder.spans, make_span("decide", None, 1.0, 2.0, k=step)])
            elif op == "clear":
                tracer.clear()
                trace_log, dumped = [], set()
            elif op == "metric":
                telemetry.increment(f"autocomp.c{step % 3}", 1 + step)
                telemetry.record(f"autocomp.s{step % 2}", float(step), value)
                if math.isfinite(value):
                    telemetry.observe("autocomp.hist.cycle_wall_s", abs(value))
            elif op == "collide":
                if kind == "counter":
                    telemetry.increment(name, value)
                elif kind == "series":
                    telemetry.record(name, float(step), value)
                else:  # non-finite observations are dropped
                    # a-b renders before a.b once both exist: colliding
                    # histograms with different bucket layouts.
                    bounds = COUNT_BOUNDS if name in ("autocomp.a-b", "autocomp.h") else None
                    telemetry.observe(name, abs(value), bounds)
            else:
                status = reference_status(telemetry, exporter.exports)
                exporter.export_once()
                assert read(exporter.prom_path) == reference_prometheus(telemetry)
                assert json.loads(read(exporter.status_path)) == json.loads(
                    json.dumps(_json_safe(status))
                )
                reference_entries.append(
                    reference_entry(telemetry, 0.5 + len(reference_entries))
                )
                # A dump appends the held spans it has not written yet.
                for span in tracer.finished():
                    if span.span_id not in dumped:
                        dumped.add(span.span_id)
                        trace_log.append(span)

                rolled, live = segments(trace_log, SPANS)
                assert read(exporter.trace_jsonl_path) == reference_trace_jsonl(live)
                assert read(exporter.trace_jsonl_path + ".1") == (
                    None if rolled is None else reference_trace_jsonl(rolled)
                )
                on_disk = (rolled or []) + live
                if len(trace_log) == len(tracer.finished()):  # nothing evicted
                    # The segments hold what one whole-file dump writes.
                    twin = Tracer()
                    twin.adopt(tracer.finished())
                    whole = twin.dump_jsonl(os.path.join(out_dir, "whole.jsonl"))
                    assert (read(exporter.trace_jsonl_path + ".1") or "") + read(
                        exporter.trace_jsonl_path
                    ) == read(whole)
                assert status_main([out_dir, "--chrome", chrome_path]) == 0
                assert parsed(read(chrome_path)) == parsed(reference_trace_chrome(on_disk))

                rolled, live = segments(reference_entries, RING)
                assert read(exporter.jsonl_path) == reference_metrics_jsonl(live)
                assert read(exporter.jsonl_path + ".1") == (
                    None if rolled is None else reference_metrics_jsonl(rolled)
                )
    finally:
        exporter_module.SNAPSHOT_RING, tracing_module.SPAN_RING = original
