"""Replay guarantees: exact round-trip, deterministic what-if, snapshots."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.fleet import FleetConfig, FleetModel, TABLE_COLUMNS
from repro.replay import PolicyVariant, TraceReplayer, verify_deterministic
from repro.units import HOUR

from tests.replay.conftest import record_cab_run, record_fleet_run, small_cab_config


def _arrays_equal(a: FleetModel, b: FleetModel) -> bool:
    if a.count != b.count or a.day != b.day:
        return False
    return all(
        np.array_equal(getattr(a, name)[: a.count], getattr(b, name)[: b.count])
        for name in (
            "tiny_files",
            "mid_files",
            "large_files",
            "tiny_bytes",
            "mid_bytes",
            "large_bytes",
            "stats_version",
            "last_write_day",
        )
    )


class TestVerbatimReplay:
    def test_round_trip_reconstructs_file_counts_exactly(self, recorded_run):
        trace_text, sim = recorded_run
        replayed = TraceReplayer(io.StringIO(trace_text)).replay_verbatim()
        assert _arrays_equal(replayed, sim.model)
        assert replayed.total_files == sim.model.total_files
        assert replayed.files_below_threshold == sim.model.files_below_threshold

    def test_round_trip_with_mid_trace_onboarding(self):
        # 35 days crosses the day-30 onboarding boundary.
        trace_text, sim = record_fleet_run(initial_tables=60, days=35, seed=11)
        replayed = TraceReplayer(io.StringIO(trace_text)).replay_verbatim()
        assert replayed.count > 60  # onboarding happened and was replayed
        assert _arrays_equal(replayed, sim.model)


class TestWhatIfReplay:
    def test_same_variant_is_byte_identical(self, trace_text):
        variant = PolicyVariant(name="v", k=5)
        first = TraceReplayer(io.StringIO(trace_text)).replay(variant)
        second = TraceReplayer(io.StringIO(trace_text)).replay(variant)
        assert first.report_bytes() == second.report_bytes()
        assert first.report_digest() == second.report_digest()

    def test_repeated_replays_on_one_replayer_are_identical(self, trace_text):
        # The snapshot/restore fast path must not leak state across replays.
        replayer = TraceReplayer(io.StringIO(trace_text))
        variant = PolicyVariant(name="v", k=5)
        assert replayer.replay(variant).report_bytes() == replayer.replay(
            variant
        ).report_bytes()

    def test_different_variants_diverge(self, trace_text):
        replayer = TraceReplayer(io.StringIO(trace_text))
        lazy = replayer.replay(PolicyVariant(name="lazy", k=1))
        eager = replayer.replay(PolicyVariant(name="eager", k=25))
        assert eager.total_files_reduced > lazy.total_files_reduced
        assert eager.files_final < lazy.files_final

    def test_one_cycle_per_recorded_day_by_default(self, trace_text):
        result = TraceReplayer(io.StringIO(trace_text)).replay(
            PolicyVariant(name="v", k=5)
        )
        assert result.days == 12
        assert len(result.reports) == 12

    def test_trigger_interval_thins_cycles(self, trace_text):
        result = TraceReplayer(io.StringIO(trace_text)).replay(
            PolicyVariant(name="v", k=5, trigger_interval_days=3)
        )
        assert len(result.reports) == 4

    def test_sharded_variant_is_deterministic(self, trace_text):
        variant = PolicyVariant(name="sharded", k=5, n_shards=2)
        assert verify_deterministic(io.StringIO(trace_text), variant)
        catalog_trace = io.StringIO()
        record_cab_run(catalog_trace, small_cab_config(databases=1, duration_s=2 * HOUR))
        assert verify_deterministic(io.StringIO(catalog_trace.getvalue()), variant)

    def test_concurrent_scheduler_variant_is_deterministic(self, trace_text):
        variant = PolicyVariant(name="conc", k=5, scheduler="concurrent")
        assert verify_deterministic(io.StringIO(trace_text), variant)

    def test_baseline_replay_never_compacts(self, trace_text):
        baseline = TraceReplayer(io.StringIO(trace_text)).replay_baseline()
        assert baseline.reports == []
        assert baseline.files_final > baseline.files_initial

    def test_class_scaled_perturbation_grows_only_that_class(self, trace_text):
        from repro.replay import Perturbation

        plain = TraceReplayer(io.StringIO(trace_text)).replay_baseline()
        tiny_storm = TraceReplayer(io.StringIO(trace_text)).replay_baseline(
            perturb=Perturbation(class_scales={"tiny": 3.0})
        )
        assert tiny_storm.files_final > plain.files_final
        # Deterministic under the same skew.
        again = TraceReplayer(io.StringIO(trace_text)).replay_baseline(
            perturb=Perturbation(class_scales={"tiny": 3.0})
        )
        assert again.files_final == tiny_storm.files_final


class TestFleetSnapshotRestore:
    def test_restore_round_trips_full_state(self):
        model = FleetModel(FleetConfig(initial_tables=30, seed=3))
        model.step_day()
        snapshot = model.snapshot()
        before = {name: getattr(model, name)[: model.count].copy() for name in TABLE_COLUMNS}
        model.step_day()
        model.compact(0)
        model.restore(snapshot)
        for name in TABLE_COLUMNS:
            assert np.array_equal(getattr(model, name)[: model.count], before[name]), name
        assert model.day == 1

    def test_restore_restores_rng_stream(self):
        model = FleetModel(FleetConfig(initial_tables=30, seed=3))
        snapshot = model.snapshot()
        model.step_day()
        first = model.tiny_files[: model.count].copy()
        model.restore(snapshot)
        model.step_day()
        assert np.array_equal(model.tiny_files[: model.count], first)

    def test_restore_invalidates_observe_view_memo(self):
        model = FleetModel(FleetConfig(initial_tables=10, seed=3))
        model.step_day()
        snapshot = model.snapshot()
        stale = model.observe_view()
        model.restore(snapshot)
        assert model.observe_view() is not stale


class TestModelReplayApis:
    def test_load_tables_rejects_missing_columns(self):
        model = FleetModel(FleetConfig(initial_tables=4, seed=1), onboard_initial=False)
        with pytest.raises(ValidationError, match="missing columns"):
            model.load_tables({"archetype": [0]})

    def test_load_tables_rejects_ragged_columns(self):
        model = FleetModel(FleetConfig(initial_tables=4, seed=1), onboard_initial=False)
        columns = {name: [0] for name in TABLE_COLUMNS}
        columns["tiny_files"] = [0, 1]
        with pytest.raises(ValidationError, match="lengths differ"):
            model.load_tables(columns)

    def test_apply_growth_rejects_bad_index(self):
        model = FleetModel(FleetConfig(initial_tables=4, seed=1))
        with pytest.raises(ValidationError, match="out of range"):
            model.apply_growth([99], [1], [0], [0])

    def test_apply_compact_state_rejects_bad_index(self):
        model = FleetModel(FleetConfig(initial_tables=4, seed=1))
        with pytest.raises(ValidationError, match="out of range"):
            model.apply_compact_state(99, {})

    def test_apply_growth_rejects_misaligned_deltas(self):
        model = FleetModel(FleetConfig(initial_tables=4, seed=1))
        with pytest.raises(ValidationError, match="must match indices length"):
            model.apply_growth([0, 1, 2], [5], [5], [5])
