"""Property tests for the Policy Lab's replay guarantees.

Invariants that hold for *every* recorded workload and policy variant:

* replaying the same trace under the same variant twice yields
  byte-identical cycle reports (the determinism guarantee),
* verbatim replay reconstructs the source state exactly (the
  recorder/replayer round-trip guarantee — per-table file counts for the
  fleet plane, the full live file layout for the LST-catalog plane),
* a recorded catalog run replayed under its own policy reproduces its own
  cycle reports byte-for-byte, whether the trace was written as one plain
  file or as compressed chunked segments.
"""

from __future__ import annotations

import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fleet import AutoCompStrategy, FleetConfig, FleetSimulator
from repro.replay import (
    CatalogReplayer,
    PolicyVariant,
    TraceReader,
    TraceRecorder,
    TraceReplayer,
    serialize_cycle_report,
)
from repro.simulation import TapBus
from repro.units import HOUR, MiB

from tests.replay.conftest import catalog_layout as _layout
from tests.replay.conftest import record_cab_run, rechunk_trace, small_cab_config

#: Small-but-varied recorded workloads (fleet size, days, seed, source k).
workloads = st.tuples(
    st.integers(min_value=10, max_value=60),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
)

#: Policy variants covering weights, budgets, cadence and control planes.
variants = st.builds(
    PolicyVariant,
    name=st.just("prop"),
    ranking=st.sampled_from(["weighted", "quota_aware"]),
    benefit_weight=st.floats(min_value=0.35, max_value=0.9),
    k=st.integers(min_value=1, max_value=15),
    min_small_files=st.integers(min_value=0, max_value=4),
    trigger_interval_days=st.integers(min_value=1, max_value=3),
    scheduler=st.sampled_from(["sequential", "concurrent"]),
    n_shards=st.sampled_from([1, 2]),
)


def _record(tables: int, days: int, seed: int, k: int) -> tuple[str, FleetSimulator]:
    taps = TapBus()
    config = FleetConfig(initial_tables=tables, onboarded_per_month=5, seed=seed)
    buffer = io.StringIO()
    recorder = TraceRecorder(buffer, taps, config=config)
    sim = FleetSimulator(config, taps=taps)
    sim.set_strategy(0, AutoCompStrategy(sim.model, k=k))
    sim.run_days(days)
    recorder.close()
    return buffer.getvalue(), sim


@settings(max_examples=12, deadline=None)
@given(workload=workloads, variant=variants)
def test_replay_same_variant_is_byte_identical(workload, variant):
    trace_text, _ = _record(*workload)
    first = TraceReplayer(io.StringIO(trace_text)).replay(variant)
    second = TraceReplayer(io.StringIO(trace_text)).replay(variant)
    assert first.report_bytes() == second.report_bytes()


@settings(max_examples=12, deadline=None)
@given(workload=workloads)
def test_verbatim_replay_reconstructs_file_counts_exactly(workload):
    trace_text, sim = _record(*workload)
    replayed = TraceReplayer(io.StringIO(trace_text)).replay_verbatim()
    source = sim.model
    assert replayed.count == source.count
    assert replayed.day == source.day
    for name in ("tiny_files", "mid_files", "large_files", "tiny_bytes", "mid_bytes", "large_bytes"):
        assert np.array_equal(
            getattr(replayed, name)[: replayed.count],
            getattr(source, name)[: source.count],
        ), name
    assert replayed.total_files == source.total_files


# --- catalog (§6 CAB) round trips ------------------------------------------------

#: Small-but-varied CAB catalog workloads: seed, shuffle fan-out, insert
#: size, and the recorded policy's k.
cab_workloads = st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=4, max_value=12),
    st.integers(min_value=8, max_value=32),
    st.integers(min_value=2, max_value=12),
)


def _record_cab(seed: int, shuffle: int, insert_mib: int, k: int, sink):
    """A tiny CAB run under AutoComp (synchronous hourly cycles), recorded.

    Thin wrapper over the shared :func:`tests.replay.conftest.record_cab_run`
    harness: hypothesis draws the workload shape and the recorded policy's
    k; path sinks record compressed segments sealed after each hourly
    cycle, stream sinks single-file.
    """
    config = small_cab_config(
        seed=seed,
        databases=1,
        data_bytes_per_db=64 * MiB,
        duration_s=2 * HOUR,
        lineitem_months=3,
        ro_rate_per_hour=0.5,
        write_spike_hour=1.0,
        spike_events_per_db=1.0,
        insert_bytes_mean=insert_mib * MiB,
        shuffle_partitions=shuffle,
    )
    catalog, _, reports, variant = record_cab_run(
        sink,
        config=config,
        variant=PolicyVariant(name="recorded", k=k),
        compress=not hasattr(sink, "write"),
    )
    return catalog, reports, variant


@settings(max_examples=8, deadline=None)
@given(workload=cab_workloads)
def test_cab_record_replay_round_trip_is_byte_identical(workload):
    """Record → replay of a CAB catalog run is byte-identical — same cycle
    report serialization, same final file layout — across both the
    single-file and the chunked+compressed trace formats, whether segments
    seal at cycle boundaries or mid-cycle."""
    buffer = io.StringIO()
    catalog, live_reports, variant = _record_cab(*workload, sink=buffer)
    live_bytes = "\n".join(
        json.dumps(serialize_cycle_report(r), sort_keys=True, separators=(",", ":"))
        for r in live_reports
    ).encode("utf-8")

    plain_trace = TraceReader(io.StringIO(buffer.getvalue())).read()
    with tempfile.TemporaryDirectory() as tmp:
        chunked_path = os.path.join(tmp, "cab.trace.jsonl")
        _record_cab(*workload, sink=chunked_path)
        chunked_trace = TraceReader(chunked_path).read()
        # Segments sealed every 15 events, mid-cycle, by the writer itself.
        rechunked_path = os.path.join(tmp, "cab.rechunked.jsonl")
        rechunk_trace(buffer.getvalue(), rechunked_path, segment_records=15, compress=True)
        rechunked_trace = TraceReader(rechunked_path).read()
        # Chunking is a pure container change: identical events.
        assert chunked_trace.events == plain_trace.events
        assert rechunked_trace.events == plain_trace.events

        for trace in (plain_trace, chunked_trace, rechunked_trace):
            result = CatalogReplayer(trace).replay(variant)
            assert result.report_bytes() == live_bytes
            assert _layout(CatalogReplayer(trace).replay_verbatim()) == _layout(catalog)
