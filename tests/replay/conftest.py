"""Shared fixtures for the Policy Lab tests: recorded fleet and catalog runs."""

from __future__ import annotations

import io
import os

import pytest

from repro.catalog import Catalog
from repro.engine import Cluster, EngineSession
from repro.fleet import AutoCompStrategy, FleetConfig, FleetSimulator
from repro.replay import (
    CatalogTraceRecorder,
    PolicyVariant,
    TraceReader,
    TraceRecorder,
    TraceWriter,
)
from repro.simulation import Simulator, TapBus
from repro.units import HOUR, MiB
from repro.workloads import CabConfig, CabWorkload


def record_fleet_run(
    initial_tables: int = 80,
    days: int = 12,
    seed: int = 20250730,
    k: int = 5,
    onboarded_per_month: int = 10,
) -> tuple[str, FleetSimulator]:
    """Run a small fleet under AutoComp while recording; returns (trace, sim)."""
    taps = TapBus()
    config = FleetConfig(
        initial_tables=initial_tables,
        onboarded_per_month=onboarded_per_month,
        seed=seed,
    )
    buffer = io.StringIO()
    recorder = TraceRecorder(buffer, taps, config=config)
    sim = FleetSimulator(config, taps=taps)
    sim.set_strategy(0, AutoCompStrategy(sim.model, k=k))
    sim.run_days(days)
    recorder.close()
    return buffer.getvalue(), sim


@pytest.fixture(scope="module")
def recorded_run() -> tuple[str, FleetSimulator]:
    """A 12-day, 80-table recorded AutoComp run (module-cached)."""
    return record_fleet_run()


@pytest.fixture(scope="module")
def trace_text(recorded_run) -> str:
    return recorded_run[0]


# --- catalog (§6 CAB) recording harness -----------------------------------------


def small_cab_config(seed: int = 99, **overrides) -> CabConfig:
    """A laptop-instant CAB shape shared by the catalog Policy Lab tests."""
    params = dict(
        databases=2,
        data_bytes_per_db=256 * MiB,
        duration_s=3 * HOUR,
        lineitem_months=6,
        ro_rate_per_hour=2.0,
        rw_rate_per_hour=2.0,
        spike_events_per_db=2.0,
        insert_bytes_mean=24 * MiB,
        shuffle_partitions=12,
        seed=seed,
    )
    params.update(overrides)
    return CabConfig(**params)


def record_cab_run(
    sink,
    config: CabConfig | None = None,
    variant: PolicyVariant | None = None,
    compress: bool = False,
):
    """Run a tiny §6 CAB catalog workload under AutoComp while recording.

    Cycles run *synchronously* (no simulator handed to the pipeline) on an
    hourly cadence driven between simulator windows — the recordable
    step-then-compact setting replay reproduces byte-for-byte.  With
    ``compress`` (a path sink) the trace is chunked: each hour's events
    seal into their own gzip segment, without a checkpoint, so the events
    equal an uncompressed recording's.  Returns
    ``(catalog, workload, reports, variant)``.
    """
    config = config or small_cab_config()
    variant = variant or PolicyVariant(name="w0.70-k10", k=10)
    taps = TapBus()
    catalog = Catalog(taps=taps)
    cluster = Cluster("compaction", executors=3)
    recorder = CatalogTraceRecorder(
        sink, taps, seed=config.seed, catalog=catalog, cluster=cluster, compress=compress
    )
    session = EngineSession(
        Cluster("query", executors=4),
        telemetry=catalog.telemetry,
        clock=catalog.clock,
        seed=config.seed,
    )
    session.attach_filesystem(catalog.fs)
    workload = CabWorkload(catalog, session, config)
    workload.load()
    simulator = Simulator(catalog.clock)
    workload.attach(simulator)
    pipeline = variant.build_catalog_pipeline(catalog, cluster)
    pipeline.taps = taps
    reports = []
    hours = int(config.duration_s // HOUR)
    for hour in range(1, hours + 1):
        simulator.run_until(hour * HOUR)
        reports.append(pipeline.run_cycle(now=catalog.clock.now))
        if compress:
            recorder.rotate(checkpoint=False)
    simulator.run_until(config.duration_s + HOUR)
    recorder.close()
    return catalog, workload, reports, variant


def rechunk_trace(text: str, path, segment_records: int, compress: bool) -> None:
    """Re-write a single-file trace through a chunked :class:`TraceWriter`.

    Segments seal every ``segment_records`` events, so boundaries fall
    mid-cycle (unlike the recorder's hourly ``rotate``); ``compress=False``
    writes uncompressed (``codec: none``) segments.
    """
    trace = TraceReader(io.StringIO(text)).read()
    writer = TraceWriter(os.fspath(path), segment_records=segment_records, compress=compress)
    try:
        writer.write(trace.header)
        for event in trace.events:
            writer.write(event)
    finally:
        writer.close()


def catalog_layout(catalog: Catalog) -> dict:
    """Per-table live file layout — the verbatim-replay equality witness."""
    return {
        str(table.identifier): sorted(
            (f.file_id, f.size_bytes, f.partition) for f in table.live_files()
        )
        for table in catalog.all_tables()
    }
