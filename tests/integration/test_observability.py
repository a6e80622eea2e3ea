"""End-to-end observability: one daemon cycle, one stitched trace.

The tentpole acceptance test: a daemon cycle over a sharded pipeline with
``workers="processes"`` must produce a *single* trace in which the
worker-process observe/decide spans (recorded in other pids, shipped home
inside the cycle results) hang under the coordinator's shard spans with
non-overlapping wall-clock attribution — plus the exporter/status surface
around that cycle: a Prometheus exposition that survives the strict CI
checker, a ``status()`` report, and the live HTTP endpoints.
"""

from __future__ import annotations

import json
import os
import time
import urllib.request

import pytest

from repro.catalog import Catalog
from repro.core import AutoCompService, LockManager
from repro.core.daemon import AutoCompDaemon
from repro.core.service import openhouse_sharded_pipeline
from repro.core.workers import process_workers_available
from repro.engine import Cluster
from repro.lst import Field, MonthTransform, PartitionField, PartitionSpec, Schema
from repro.obs.promcheck import check_exposition
from repro.obs.status import load_status_dir
from repro.obs.tracing import Tracer
from repro.units import HOUR, MiB


def build_fleet(databases=2, tables=2):
    catalog = Catalog()
    schema = Schema.of(Field("id", "long"), Field("event_date", "date"))
    spec = PartitionSpec.of(PartitionField("event_date", MonthTransform()))
    for d in range(databases):
        catalog.create_database(f"db{d}", quota_objects=1_000_000)
        for t in range(tables):
            table = catalog.create_table(f"db{d}.t{t}", schema, spec=spec)
            txn = table.new_append()
            for _ in range(8):
                txn.add_file(8 * MiB, partition=(0,))
            txn.commit()
    catalog.clock.advance_by(2 * HOUR)  # age past the recent-table filter
    return catalog


def build_obs_daemon(tmp_path, tracer, workers="inline"):
    catalog = build_fleet()
    pipeline = openhouse_sharded_pipeline(
        catalog,
        Cluster("maint", executors=3),
        n_shards=2,
        selection="local",
        workers=workers,
        # Process mode only: on small CI boxes cpu_count() can be 1, which
        # would silently fall back to in-process observe; two workers
        # force real fork.
        max_workers=2,
        tracer=tracer,
    )
    service = AutoCompService(pipeline)
    locks = LockManager(str(tmp_path / "locks"), owner="obs", stale_after_s=30.0)
    return AutoCompDaemon(
        service,
        locks,
        tracer=tracer,
        obs_dir=str(tmp_path / "obs"),
        export_interval_s=60.0,
    )


@pytest.mark.skipif(
    not process_workers_available(), reason="process workers need fork on Linux"
)
class TestStitchedProcessTrace:
    def test_single_trace_with_worker_parentage(self, tmp_path):
        tracer = Tracer()
        daemon = build_obs_daemon(tmp_path, tracer, workers="processes")
        try:
            report = daemon.run_once()
        finally:
            daemon.stop()
        assert report is not None

        spans = tracer.finished()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)

        # One stitched trace: every span shares the root cycle's trace id.
        [cycle] = by_name["cycle"]
        assert {s.trace_id for s in spans} == {cycle.trace_id}

        coordinator_pid = os.getpid()
        assert cycle.pid == coordinator_pid

        # Coordinator-side shard spans parent under the observe phase: the
        # coordinator observes shard 0 itself, and shard 1 ships.
        [observe] = [s for s in by_name["observe"] if s.pid == coordinator_pid]
        shard_spans = sorted(by_name["shard"], key=lambda s: s.attrs["shard"])
        assert [(s.attrs["shard"], s.attrs["mode"]) for s in shard_spans] == [
            (0, "inline"),
            (1, "processes"),
        ]
        for shard in shard_spans:
            assert shard.pid == coordinator_pid
            assert shard.parent_id == observe.span_id

        # Worker-side spans crossed the process boundary and stitched in
        # under the shipped shard's span with the worker's own pid.
        worker_spans = [s for s in spans if s.pid != coordinator_pid]
        assert worker_spans, "no worker-recorded spans were adopted"
        for span in worker_spans:
            assert span.name in ("observe", "decide")
            assert span.parent_id == shard_spans[1].span_id

        # Non-overlapping wall-clock attribution per worker: the shard's
        # observe finishes before its decide starts, and both sit inside
        # the coordinator's shard-span window (same-host clocks).
        for shard in shard_spans:
            children = [s for s in worker_spans if s.parent_id == shard.span_id]
            phases = {s.name: s for s in children}
            if "decide" in phases:
                assert phases["observe"].end_s <= phases["decide"].start_s
            for child in children:
                assert child.start_s >= shard.start_s
                assert child.end_s <= shard.end_s

    def test_rewrite_spans_attribute_act_work(self, tmp_path):
        tracer = Tracer()
        daemon = build_obs_daemon(tmp_path, tracer, workers="processes")
        try:
            daemon.run_once()
        finally:
            daemon.stop()
        rewrites = [s for s in tracer.finished() if s.name == "rewrite"]
        assert rewrites, "act phase scheduled no rewrite jobs"
        acts = {s.span_id for s in tracer.finished() if s.name == "act"}
        for span in rewrites:
            assert span.parent_id in acts
            assert "key" in span.attrs
            assert span.attrs["rewritten_bytes"] >= 0


class TestDaemonObsSurface:
    def test_exporter_status_and_http(self, tmp_path):
        tracer = Tracer()
        daemon = build_obs_daemon(tmp_path, tracer)
        server = None
        try:
            daemon.run_once()
            status = daemon.status()
            assert status["owner"] == "obs"
            assert status["cycles_run"] == 1
            assert status["cycle_errors"] == 0
            assert status["cycle_in_flight"] is False
            assert status["held_locks"] == []
            assert any(
                name.startswith("autocomp.hist.") for name in status["histograms"]
            )

            server = daemon.serve_status()
            assert daemon.serve_status() is server  # idempotent
            host, port = server.address
            with urllib.request.urlopen(f"http://{host}:{port}/status") as response:
                live = json.load(response)
            assert live["cycles_run"] == 1
            with urllib.request.urlopen(f"http://{host}:{port}/metrics") as response:
                exposition = response.read().decode("utf-8")
            assert check_exposition(exposition) == []
            assert "autocomp_hist_cycle_wall_s_count" in exposition
        finally:
            daemon.stop()

        # stop() shut the HTTP server down and ran the final export.
        assert server.address is None
        loaded = load_status_dir(str(tmp_path / "obs"))
        assert loaded["errors"] == []
        assert loaded["status"]["cycles_run"] == 1
        assert loaded["trace_spans"] > 0
        assert loaded["metrics_prom"] > 0
        with open(daemon.exporter.prom_path, encoding="utf-8") as stream:
            assert check_exposition(stream.read()) == []

    def test_scheduled_cycles_export_while_running(self, tmp_path):
        tracer = Tracer()
        catalog = build_fleet()
        pipeline = openhouse_sharded_pipeline(
            catalog, Cluster("maint", executors=3), n_shards=2, tracer=tracer
        )
        service = AutoCompService(pipeline)
        locks = LockManager(str(tmp_path / "locks"), owner="sched", stale_after_s=30.0)
        daemon = AutoCompDaemon(
            service,
            locks,
            interval_s=0.05,
            tracer=tracer,
            obs_dir=str(tmp_path / "obs"),
            export_interval_s=0.1,
        )
        try:
            daemon.start()
            deadline = 50
            while daemon.exporter.exports == 0 and deadline:
                time.sleep(0.05)
                deadline -= 1
        finally:
            daemon.stop()
        assert daemon.cycles_run >= 1
        assert daemon.exporter.exports >= 1
        assert daemon.exporter.export_errors == 0
        assert os.path.exists(daemon.exporter.status_path)
