"""Oracle test: encode-once exports write the bytes a full re-encode writes.

The tracer keeps each finished span's JSONL line and Chrome event string,
and the exporter keeps its ``metrics.jsonl`` ring as encoded lines, so an
export encodes only what is new.  This module keeps the simpler model those
replaced — every export re-encodes every span (twice) and every ring entry
— and runs it over random histories of spans (nested, detached, adopted
from a worker), ``clear``, telemetry updates (non-finite values included)
and exports.  After every export the three files must be byte-identical
to the reference.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.exporter as exporter_module
from repro.obs.exporter import MetricsExporter, _json_safe
from repro.obs.tracing import SpanContext, SpanRecorder, Tracer, make_span, timed
from repro.simulation import Telemetry

RING = 4

OPS = st.lists(
    st.sampled_from(["span", "nested", "detached", "adopt", "clear", "metric", "export"]),
    min_size=1,
    max_size=40,
)
VALUES = st.sampled_from([0.0, 1.5, -2.25, 1e-9, 3e12, math.nan, math.inf, -math.inf])


def reference_trace_jsonl(tracer: Tracer) -> str:
    lines = [json.dumps(span.to_dict(), sort_keys=True) for span in tracer.finished()]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_trace_chrome(tracer: Tracer) -> str:
    return json.dumps(
        {
            "displayTimeUnit": "ms",
            "traceEvents": [span.to_chrome_event() for span in tracer.finished()],
        }
    )


def reference_entry(telemetry: Telemetry, ts: float) -> dict:
    snap = telemetry.snapshot()
    return {
        "ts": ts,
        "counters": snap["counters"],
        "series_last": {
            name: (values[-1] if values else None)
            for name, (_, values) in snap["series"].items()
        },
        "histograms": {name: hist.summary() for name, hist in snap["histograms"].items()},
    }


def read(path: str) -> str:
    with open(path, encoding="utf-8") as stream:
        return stream.read()


@settings(max_examples=60, deadline=None)
@given(ops=OPS, values=st.lists(VALUES, min_size=40, max_size=40))
def test_exports_match_full_reencode(tmp_path_factory, ops, values):
    out_dir = str(tmp_path_factory.mktemp("obs"))
    telemetry = Telemetry()
    tracer = Tracer(clock=itertools.count(1_000.0, 0.125).__next__)
    ticks = itertools.count(0.5)
    original_ring = exporter_module.SNAPSHOT_RING
    exporter_module.SNAPSHOT_RING = RING  # exercise ring eviction
    try:
        exporter = MetricsExporter(
            telemetry, out_dir, tracer=tracer, clock=ticks.__next__
        )
    finally:
        exporter_module.SNAPSHOT_RING = original_ring
    reference_ring: deque[dict] = deque(maxlen=RING)
    exported = 0
    for step, (op, value) in enumerate(zip(ops, values)):
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
        elif op == "metric":
            telemetry.increment(f"autocomp.c{step % 3}", 1 + step)
            telemetry.record(f"autocomp.s{step % 2}", float(step), value)
            if math.isfinite(value):
                telemetry.observe("autocomp.hist.cycle_wall_s", abs(value))
        else:
            exporter.export_once()
            reference_ring.append(reference_entry(telemetry, 0.5 + exported))
            exported += 1
            assert read(exporter.trace_jsonl_path) == reference_trace_jsonl(tracer)
            assert read(exporter.trace_chrome_path) == reference_trace_chrome(tracer)
            assert read(exporter.jsonl_path) == "".join(
                json.dumps(_json_safe(entry), sort_keys=True) + "\n"
                for entry in reference_ring
            )
