"""Catalog Policy Lab tests: §6 trace capture, replay, ring self-evaluation."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.catalog import Catalog
from repro.core.candidates import CandidateKey, CandidateScope
from repro.core.service import AutoCompService, openhouse_pipeline
from repro.engine import Cluster, EngineSession
from repro.errors import ValidationError
from repro.replay import (
    CatalogHistoryRing,
    CatalogReplayer,
    Perturbation,
    PolicyVariant,
    TraceReader,
    TraceValidationError,
    WhatIfRunner,
    serialize_cycle_report,
    trace_size_bytes,
)
from repro.simulation import Simulator
from repro.simulation.taps import TapBus
from repro.units import HOUR, MiB
from repro.workloads import CabWorkload

from tests.replay.conftest import catalog_layout as live_layout
from tests.replay.conftest import record_cab_run, small_cab_config

RECORD_VARIANT = PolicyVariant(name="w0.70-k10", k=10)


@pytest.fixture(scope="module")
def recorded_cab():
    buffer = io.StringIO()
    catalog, workload, reports, _ = record_cab_run(buffer, variant=RECORD_VARIANT)
    return buffer.getvalue(), catalog, workload, reports


@pytest.fixture(scope="module")
def cab_trace(recorded_cab):
    return TraceReader(io.StringIO(recorded_cab[0])).read()


class TestCatalogRecording:
    def test_trace_is_catalog_schema_v2(self, cab_trace):
        assert cab_trace.trace_type == "catalog"
        assert cab_trace.schema == 2
        kinds = {event["kind"] for event in cab_trace.events}
        assert kinds == {"db_create", "table_create", "table_commit", "cycle"}

    def test_config_refused_for_catalog_traces(self, cab_trace):
        with pytest.raises(ValidationError):
            cab_trace.config()

    def test_commit_events_carry_version_tokens(self, cab_trace):
        commits = cab_trace.events_of("table_commit")
        assert commits
        by_table: dict[str, int] = {}
        for event in commits:
            name = f"{event['database']}.{event['table']}"
            # Versions strictly increase per table — the freshness tokens
            # incremental caches key on.
            assert event["version"] > by_table.get(name, 0)
            by_table[name] = event["version"]

    def test_rewrites_are_replace_commits(self, cab_trace):
        assert any(e["op"] == "replace" for e in cab_trace.events_of("table_commit"))

    def test_cycle_events_hold_serialized_reports(self, cab_trace, recorded_cab):
        recorded = [event["report"] for event in cab_trace.events_of("cycle")]
        assert recorded == [serialize_cycle_report(r) for r in recorded_cab[3]]

    def test_cycle_stamp_floors_at_catalog_clock(self):
        """run_cycle() without `now` must not stamp t=0 after commits at
        t>0 — that trace would fail non-decreasing-time validation."""
        from repro.simulation import TapBus

        taps = TapBus()
        catalog = Catalog(taps=taps)
        buffer = io.StringIO()
        from repro.replay import CatalogTraceRecorder

        recorder = CatalogTraceRecorder(buffer, taps, seed=1, catalog=catalog)
        catalog.create_database("db")
        from repro.lst.schema import Field, Schema

        table = catalog.create_table("db.t", Schema.of(Field("x", "long")))
        catalog.clock.advance_to(HOUR)
        txn = table.new_append()
        txn.add_file(MiB)
        txn.commit()
        pipeline = openhouse_pipeline(
            catalog, Cluster("maint", executors=2), min_table_age_s=0.0
        )
        pipeline.taps = taps
        pipeline.run_cycle()  # defaults now=0.0
        recorder.close()
        trace = TraceReader(io.StringIO(buffer.getvalue())).read()  # must validate
        assert trace.events_of("cycle")[-1]["t"] == HOUR

    def test_ingested_bytes_counts_workload_not_rewrites(self, cab_trace):
        expected = sum(
            size
            for event in cab_trace.events_of("table_commit")
            if event["op"] != "replace"
            for _, size in event["added"]
        )
        assert cab_trace.ingested_bytes() == expected > 0


class TestCatalogVerbatimReplay:
    def test_final_layout_is_exact(self, recorded_cab, cab_trace):
        _, catalog, workload, _ = recorded_cab
        replayed = CatalogReplayer(cab_trace).replay_verbatim()
        assert live_layout(replayed) == live_layout(catalog)

    def test_versions_and_counters_match(self, recorded_cab, cab_trace):
        _, catalog, _, _ = recorded_cab
        replayed = CatalogReplayer(cab_trace).replay_verbatim()
        for source in catalog.all_tables():
            twin = replayed.load_table(str(source.identifier))
            assert twin.version == source.version
            assert twin._next_file_id == source._next_file_id
            assert twin._next_snapshot_id == source._next_snapshot_id


class TestCatalogWhatIfReplay:
    def test_record_replay_byte_identical(self, recorded_cab, cab_trace):
        """The §6 acceptance property: a recorded CAB run replayed under the
        recorded policy reproduces its own cycle reports byte-for-byte."""
        _, _, _, live_reports = recorded_cab
        result = CatalogReplayer(cab_trace).replay(RECORD_VARIANT)
        live_bytes = "\n".join(
            json.dumps(serialize_cycle_report(r), sort_keys=True, separators=(",", ":"))
            for r in live_reports
        ).encode("utf-8")
        assert result.report_bytes() == live_bytes

    def test_same_variant_twice_is_deterministic(self, cab_trace):
        first = CatalogReplayer(cab_trace).replay(RECORD_VARIANT)
        second = CatalogReplayer(cab_trace).replay(RECORD_VARIANT)
        assert first.report_bytes() == second.report_bytes()

    def test_trigger_interval_skips_markers(self, cab_trace):
        lazy = PolicyVariant(name="lazy", k=10, trigger_interval_days=2)
        result = CatalogReplayer(cab_trace).replay(lazy)
        markers = len(cab_trace.events_of("cycle"))
        assert len(result.reports) == markers // 2

    def test_counterfactual_policy_diverges(self, cab_trace):
        eager = CatalogReplayer(cab_trace).replay(PolicyVariant(name="k50", k=50))
        tiny = CatalogReplayer(cab_trace).replay(PolicyVariant(name="k1", k=1))
        assert eager.total_files_reduced >= tiny.total_files_reduced

    def test_baseline_never_compacts(self, cab_trace):
        baseline = CatalogReplayer(cab_trace).replay_baseline()
        assert baseline.reports == []
        assert baseline.files_final >= baseline.files_initial

    def test_fleet_replayer_refuses_catalog_traces(self, cab_trace):
        from repro.replay import TraceReplayer

        with pytest.raises(ValidationError):
            TraceReplayer(cab_trace).replay(RECORD_VARIANT)

    def test_catalog_replayer_refuses_fleet_traces(self):
        from tests.replay.conftest import record_fleet_run

        text, _ = record_fleet_run(initial_tables=10, days=2)
        with pytest.raises(ValidationError):
            CatalogReplayer(io.StringIO(text))


class TestChunkedTraces:
    def test_chunked_round_trip_matches_single_file(self, recorded_cab, tmp_path):
        plain_events = TraceReader(io.StringIO(recorded_cab[0])).read().events
        chunked_path = tmp_path / "run.trace.jsonl"
        record_cab_run(os.fspath(chunked_path), segment_records=25, compress=True)
        chunked = TraceReader(os.fspath(chunked_path)).read()
        assert chunked.events == plain_events
        assert chunked.header["chunked"] is True

    def test_compression_shrinks_traces(self, recorded_cab, tmp_path):
        plain_path = tmp_path / "plain.jsonl"
        plain_path.write_text(recorded_cab[0], encoding="utf-8")
        chunked_path = tmp_path / "chunked.jsonl"
        record_cab_run(os.fspath(chunked_path), segment_records=25, compress=True)
        assert trace_size_bytes(chunked_path) * 2 <= trace_size_bytes(plain_path)

    def test_segment_record_counts_validated(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record_cab_run(os.fspath(path), segment_records=25, compress=False)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        tampered = json.loads(lines[1])
        tampered["records"] += 1
        lines[1] = json.dumps(tampered, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceValidationError):
            TraceReader(os.fspath(path)).read()

    def test_chunked_writer_needs_a_path(self):
        from repro.replay import TraceWriter

        with pytest.raises(ValidationError):
            TraceWriter(io.StringIO(), segment_records=10)

    def test_deterministic_compressed_bytes(self, tmp_path):
        """Same run recorded twice → identical segment bytes (pinned gzip)."""
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        record_cab_run(os.fspath(a), segment_records=40, compress=True)
        record_cab_run(os.fspath(b), segment_records=40, compress=True)
        seg_a = sorted(p for p in os.listdir(tmp_path) if p.startswith("a.jsonl.seg"))
        seg_b = sorted(p for p in os.listdir(tmp_path) if p.startswith("b.jsonl.seg"))
        assert len(seg_a) == len(seg_b) >= 2
        for left, right in zip(seg_a, seg_b):
            assert (tmp_path / left).read_bytes() == (tmp_path / right).read_bytes()


class TestNonSeekableSources:
    def test_reader_accepts_pipe_like_streams(self, recorded_cab):
        class PipeLike(io.TextIOBase):
            def __init__(self, text: str) -> None:
                self._inner = io.StringIO(text)

            def readable(self) -> bool:
                return True

            def seekable(self) -> bool:
                return False

            def seek(self, *args):
                raise io.UnsupportedOperation("underlying stream is not seekable")

            def readline(self, *args):
                return self._inner.readline(*args)

        trace = TraceReader(PipeLike(recorded_cab[0])).read()
        assert trace.trace_type == "catalog"
        assert trace.events


class TestWhatIfOverCatalogTraces:
    def test_runner_dispatches_and_ranks(self, cab_trace):
        variants = [
            PolicyVariant(name="k2", k=2),
            PolicyVariant(name="k10", k=10),
            PolicyVariant(name="quota", ranking="quota_aware", k=10),
        ]
        with WhatIfRunner(cab_trace, variants) as runner:
            report = runner.run(workers=1)
        assert len(report.scores) == 3
        assert report.best().files_reduced >= 0
        digests = {s.variant.name: s.report_digest for s in report.scores}
        assert len(set(digests.values())) >= 2  # policies genuinely differ

    def test_path_mode_processes_match_sequential(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        record_cab_run(os.fspath(path), segment_records=50, compress=True)
        variants = [PolicyVariant(name="k2", k=2), PolicyVariant(name="k10", k=10)]
        runner = WhatIfRunner(os.fspath(path), variants)
        try:
            sequential = runner.run(workers=1)
            parallel = runner.run(workers=2)
        finally:
            runner.close()
        assert [s.report_digest for s in sequential.scores] == [
            s.report_digest for s in parallel.scores
        ]


class TestPerturbation:
    def test_identity_changes_nothing(self, cab_trace):
        plain = CatalogReplayer(cab_trace).replay(RECORD_VARIANT)
        perturbed = CatalogReplayer(cab_trace).replay(RECORD_VARIANT, perturb=Perturbation())
        assert plain.report_bytes() == perturbed.report_bytes()

    def test_ingest_scaling_is_deterministic_and_monotone(self, cab_trace):
        heavy = Perturbation(ingest_scale=2.0)
        first = CatalogReplayer(cab_trace).replay(RECORD_VARIANT, perturb=heavy)
        second = CatalogReplayer(cab_trace).replay(RECORD_VARIANT, perturb=heavy)
        assert first.report_bytes() == second.report_bytes()
        assert cab_trace.ingested_bytes(perturb=heavy) > cab_trace.ingested_bytes()

    def test_growth_scaling_adds_files(self, cab_trace):
        grown = CatalogReplayer(cab_trace).replay_baseline(
            perturb=Perturbation(growth_scale=2.0)
        )
        plain = CatalogReplayer(cab_trace).replay_baseline()
        assert grown.files_final > plain.files_final

    def test_validation(self):
        with pytest.raises(ValidationError):
            Perturbation(growth_scale=0.0)
        with pytest.raises(ValidationError):
            Perturbation(ingest_scale=-1.0)
        with pytest.raises(ValidationError):
            Perturbation(database_scales={"logs": 0.0})
        with pytest.raises(ValidationError):
            Perturbation(class_scales={"huge": 2.0})  # not a fleet class
        with pytest.raises(ValidationError):
            Perturbation(class_scales={"tiny": -1.0})

    def test_scale_maps_normalize_and_hash(self):
        a = Perturbation(database_scales={"b": 2.0, "a": 3.0})
        b = Perturbation(database_scales={"a": 3.0, "b": 2.0})
        assert a == b and hash(a) == hash(b)
        assert a.database_scales == (("a", 3.0), ("b", 2.0))
        assert Perturbation(database_scales={"a": 1.0}, class_scales={"mid": 1.0}).is_identity
        assert not Perturbation(database_scales={"a": 2.0}).is_identity

    def test_database_scales_skew_only_the_named_tenant(self, cab_trace):
        commits = cab_trace.events_of("table_commit")
        databases = {e["database"] for e in commits if e["op"] != "replace"}
        target = sorted(databases)[0]
        skew = Perturbation(database_scales={target: 3.0})
        for event in commits:
            if event["op"] == "replace":
                assert skew.transform_commit(event) == event
                continue
            scaled = skew.transform_commit(event)
            if event["database"] == target:
                assert len(scaled["added"]) >= len(event["added"])
            else:
                assert scaled == event
        # Perturbed ingest volume grows, and replay stays deterministic.
        assert cab_trace.ingested_bytes(perturb=skew) > cab_trace.ingested_bytes()
        first = CatalogReplayer(cab_trace).replay(RECORD_VARIANT, perturb=skew)
        second = CatalogReplayer(cab_trace).replay(RECORD_VARIANT, perturb=skew)
        assert first.report_bytes() == second.report_bytes()

    def test_class_scales_skew_only_that_fleet_class(self):
        day = {"kind": "day", "indices": [0, 1], "tiny": [2, 4], "mid": [3, 5],
               "large": [1, 1]}
        scaled = Perturbation(class_scales={"tiny": 3.0}).transform_day(day)
        assert scaled["tiny"] == [6, 12]
        assert scaled["mid"] == day["mid"]
        assert scaled["large"] == day["large"]
        assert scaled["indices"] == day["indices"]


class TestShardedCatalogReplay:
    """Satellite: the sharded control plane replayed offline, byte-identical."""

    def test_sharded_variant_matches_unsharded_byte_for_byte(self, cab_trace):
        base = PolicyVariant(name="probe", k=8)
        sharded = PolicyVariant(name="probe", k=8, n_shards=2)
        plain = CatalogReplayer(cab_trace).replay(base)
        split = CatalogReplayer(cab_trace).replay(sharded)
        # Global selection re-merges shard candidates at fleet level, so
        # the sharded plane must reproduce the unsharded reports exactly.
        assert split.report_bytes() == plain.report_bytes()
        assert split.report_digest() == plain.report_digest()

    def test_sharded_quota_aware_variant_matches_unsharded(self, cab_trace):
        """The quota-aware policy reaches the fleet-level rank through the
        shards alone (the coordinator holds no copy of it)."""
        base = PolicyVariant(name="quota", ranking="quota_aware", k=8)
        sharded = PolicyVariant(name="quota", ranking="quota_aware", k=8, n_shards=2)
        plain = CatalogReplayer(cab_trace).replay(base)
        split = CatalogReplayer(cab_trace).replay(sharded)
        assert split.report_bytes() == plain.report_bytes()

    def test_sharded_replay_is_deterministic(self, cab_trace):
        variant = PolicyVariant(name="probe", k=8, n_shards=3)
        first = CatalogReplayer(cab_trace).replay(variant)
        second = CatalogReplayer(cab_trace).replay(variant)
        assert first.report_bytes() == second.report_bytes()

    def test_whatif_ranks_sharded_variants(self, cab_trace):
        variants = [
            PolicyVariant(name="k8", k=8),
            PolicyVariant(name="k8x2", k=8, n_shards=2),
        ]
        with WhatIfRunner(cab_trace, variants) as runner:
            report = runner.run(workers=1)
        scores = {s.variant.name: s for s in report.scores}
        assert scores["k8"].report_digest == scores["k8x2"].report_digest


def build_service_run(segment_cycles: int = 1, max_segments: int = 3):
    """A live CAB service with history enabled mid-life (post-load)."""
    config = small_cab_config(seed=5)
    catalog = Catalog()
    cluster = Cluster("compaction", executors=3)
    session = EngineSession(
        Cluster("query", executors=4),
        telemetry=catalog.telemetry,
        clock=catalog.clock,
        seed=config.seed,
    )
    session.attach_filesystem(catalog.fs)
    workload = CabWorkload(catalog, session, config)
    workload.load()  # before taps attach: the ring's checkpoint must cover it
    simulator = Simulator(catalog.clock)
    workload.attach(simulator)
    pipeline = openhouse_pipeline(catalog, cluster, k=10, min_table_age_s=0.0)
    service = AutoCompService(pipeline)
    ring = service.enable_history(
        segment_cycles=segment_cycles, max_segments=max_segments, seed=11
    )
    for hour in range(1, 4):
        simulator.run_until(hour * HOUR)
        service.run_cycle(now=catalog.clock.now)
    return service, ring, workload


class TestServiceSelfEvaluation:
    def test_evaluate_recent_ranks_without_touching_live_catalog(self):
        service, ring, workload = build_service_run()
        files_before = workload.total_data_files()
        layout_before = live_layout(service._catalog())
        variants = [
            PolicyVariant(name="k2", k=2),
            PolicyVariant(name="k10", k=10),
            PolicyVariant(name="quota", ranking="quota_aware", k=10),
            PolicyVariant(name="lazy", k=10, trigger_interval_days=2),
        ]
        report = service.evaluate_recent(variants, window=2)
        assert len(report.scores) == 4
        assert report.best() is report.ranked()[0]
        assert workload.total_data_files() == files_before
        assert live_layout(service._catalog()) == layout_before

    def test_ring_rotates_and_evicts(self):
        _, ring, _ = build_service_run(segment_cycles=1, max_segments=2)
        assert ring.n_segments == 2  # 3 cycles, capacity 2: oldest evicted

    def test_ring_trace_starts_with_checkpoint_and_replays(self):
        service, ring, _ = build_service_run()
        trace = ring.trace(window=2)
        assert trace.events[0]["kind"] == "checkpoint"
        assert not any(
            e["kind"] == "checkpoint" for e in trace.events[1:]
        )  # later checkpoints stripped
        first = CatalogReplayer(trace).replay(PolicyVariant(name="probe", k=5))
        second = CatalogReplayer(trace).replay(PolicyVariant(name="probe", k=5))
        assert first.report_bytes() == second.report_bytes()

    def test_ring_save_round_trips_through_reader(self, tmp_path):
        _, ring, _ = build_service_run()
        path = tmp_path / "ring.trace.jsonl"
        ring.save(os.fspath(path), segment_records=100, compress=True)
        trace = TraceReader(os.fspath(path)).read()
        assert trace.events == ring.trace().events

    def test_evaluate_recent_requires_history(self, tmp_path):
        catalog = Catalog()
        catalog.create_database("db")
        pipeline = openhouse_pipeline(catalog, Cluster("maint", executors=2))
        service = AutoCompService(pipeline)
        with pytest.raises(ValidationError):
            service.evaluate_recent([PolicyVariant(name="k2", k=2)])

    def test_priors_come_from_ranked_winner(self):
        service, _, _ = build_service_run()
        report = service.evaluate_recent(
            [PolicyVariant(name="k2", k=2), PolicyVariant(name="k10", k=10)]
        )
        priors = report.to_priors()
        assert priors["k"] == float(report.best().variant.k)


class TestRingEdges:
    """Regression: evaluate_recent raised at ring edges instead of degrading."""

    def test_window_larger_than_history_clamps_to_everything(self):
        service, ring, _ = build_service_run()
        full = ring.trace()
        clamped = ring.trace(window=ring.n_segments + 100)
        assert clamped.events == full.events
        report = service.evaluate_recent(
            [PolicyVariant(name="k5", k=5)], window=10_000
        )
        assert len(report.scores) == 1

    def test_window_zero_degrades_to_current_state(self):
        service, ring, _ = build_service_run()
        trace = ring.trace(window=0)
        assert [e["kind"] for e in trace.events] == ["checkpoint"]
        # Zero recorded history: every variant scores over "what exists".
        report = service.evaluate_recent([PolicyVariant(name="k5", k=5)], window=0)
        assert report.scores[0].cycles == 0

    def test_negative_window_still_raises(self):
        _, ring, _ = build_service_run()
        with pytest.raises(ValidationError):
            ring.trace(window=-1)

    def test_empty_ring_evaluates_what_exists(self, catalog, simple_schema):
        # History enabled but no cycle ever ran: the ring holds one open
        # (unsealed) segment — just its opening checkpoint.
        catalog.create_database("db")
        catalog.create_table("db.t0", simple_schema)
        pipeline = openhouse_pipeline(catalog, Cluster("maint", executors=2))
        service = AutoCompService(pipeline)
        ring = service.enable_history()
        assert ring.n_segments == 1
        report = service.evaluate_recent([PolicyVariant(name="k2", k=2)])
        assert len(report.scores) == 1

    def test_unsealed_trailing_segment_is_included(self):
        service, ring, _ = build_service_run(segment_cycles=8)  # never seals
        assert ring.n_segments == 1
        trace = ring.trace(window=1)
        assert any(e["kind"] == "cycle" for e in trace.events)


class TestRingSpillLoad:
    """Daemon drain persistence: spill → restart → identical history/rankings."""

    VARIANTS = (
        PolicyVariant(name="k2", k=2),
        PolicyVariant(name="k10", k=10),
        PolicyVariant(name="lazy", k=10, trigger_interval_days=2),
    )

    def test_spill_writes_one_trace_segment_per_ring_segment(self, tmp_path):
        _, ring, _ = build_service_run(segment_cycles=1, max_segments=3)
        path = tmp_path / "ring.spill.jsonl"
        spilled = ring.spill(os.fspath(path))
        assert spilled == ring.n_segments
        manifest = [json.loads(line) for line in open(path)]
        segments = [r for r in manifest if r["kind"] == "segment"]
        assert len(segments) == ring.n_segments
        assert all(r["codec"] == "gzip" for r in segments)

    def test_load_rebuilds_identical_segments(self, tmp_path):
        _, ring, _ = build_service_run(segment_cycles=1, max_segments=3)
        path = tmp_path / "ring.spill.jsonl"
        ring.spill(os.fspath(path))
        restored = CatalogHistoryRing(
            ring.catalog,
            TapBus(),
            seed=ring.seed,
            cluster=ring.cluster,
            segment_cycles=1,
            max_segments=3,
        )
        assert restored.load(os.fspath(path)) == ring.n_segments
        assert list(restored._segments) == list(ring._segments)
        assert restored.trace().events == ring.trace().events
        assert restored.events_recorded == sum(
            1 for s in ring._segments for e in s if e["kind"] != "checkpoint"
        )

    def test_rankings_identical_across_restart(self, tmp_path):
        service, ring, _ = build_service_run(segment_cycles=1, max_segments=3)
        before = [
            s.variant.name
            for s in service.evaluate_recent(list(self.VARIANTS)).ranked()
        ]
        path = tmp_path / "ring.spill.jsonl"
        assert service.spill_history(os.fspath(path)) == ring.n_segments
        # A fresh service over the same catalog — the daemon-restart shape.
        revived = AutoCompService(service.pipeline)
        revived.restore_history(
            os.fspath(path), segment_cycles=1, max_segments=3, seed=11
        )
        after = [
            s.variant.name
            for s in revived.evaluate_recent(list(self.VARIANTS)).ranked()
        ]
        assert after == before

    def test_spill_without_history_is_noop(self, catalog):
        catalog.create_database("db")
        pipeline = openhouse_pipeline(catalog, Cluster("maint", executors=2))
        service = AutoCompService(pipeline)
        assert service.spill_history("/nonexistent/should/not/be/written") is None


class TestCheckpointRestore:
    def test_restore_requires_empty_catalog(self, recorded_cab):
        _, catalog, _, _ = recorded_cab
        from repro.replay import catalog_checkpoint, restore_checkpoint

        event = catalog_checkpoint(catalog)
        target = Catalog()
        restore_checkpoint(target, event)
        assert live_layout(target) == live_layout(catalog)
        with pytest.raises(ValidationError):
            restore_checkpoint(target, event)

    def test_restored_tables_accept_new_commits(self, recorded_cab):
        _, catalog, _, _ = recorded_cab
        from repro.replay import catalog_checkpoint, restore_checkpoint

        target = Catalog()
        restore_checkpoint(target, catalog_checkpoint(catalog))
        table = target.all_tables()[0]
        source = catalog.load_table(str(table.identifier))
        txn = table.new_append()
        txn.add_file(4 * MiB, partition=table.partitions()[0] if table.partitions() else ())
        txn.commit()
        # New commit continues the recorded id/version sequence.
        assert table.version == source.version + 1
        assert table._next_file_id == source._next_file_id + 1
