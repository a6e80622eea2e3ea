"""Tests for the scale-out control plane (sharded parallel OODA cycles)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AllSelector,
    BudgetSelector,
    CandidateKey,
    CandidateScope,
    Selector,
    ShardedPipeline,
    TopKSelector,
    shard_for_key,
    split_selector,
)
from repro.errors import ValidationError
from repro.fleet import (
    AutoCompStrategy,
    FleetConfig,
    FleetModel,
    ShardedAutoCompStrategy,
)
from repro.simulation import Telemetry
from repro.units import DAY

# --- consistent hashing -----------------------------------------------------------

_keys = st.builds(
    CandidateKey,
    database=st.text(min_size=1, max_size=12),
    table=st.text(min_size=1, max_size=12),
    scope=st.just(CandidateScope.TABLE),
)
_partition_keys = st.builds(
    CandidateKey,
    database=st.text(min_size=1, max_size=8),
    table=st.text(min_size=1, max_size=8),
    scope=st.just(CandidateScope.PARTITION),
    partition=st.tuples(st.integers(min_value=0, max_value=400)),
)


class TestShardForKey:
    @given(key=st.one_of(_keys, _partition_keys), n=st.integers(min_value=1, max_value=16))
    @settings(max_examples=200)
    def test_every_key_lands_on_exactly_one_valid_shard(self, key, n):
        shard = shard_for_key(key, n)
        assert 0 <= shard < n
        # Stable: same key, same shard — and equal keys agree regardless of
        # object identity (content hashing, not id hashing).
        clone = CandidateKey(
            database=key.database,
            table=key.table,
            scope=key.scope,
            partition=key.partition,
            snapshot_id=key.snapshot_id,
        )
        assert shard_for_key(key, n) == shard
        assert shard_for_key(clone, n) == shard
        # Exactly one shard owns the key.
        assert sum(1 for s in range(n) if shard_for_key(key, n) == s) == 1

    def test_known_assignment_is_process_independent(self):
        # Pinned value: BLAKE2b content hashing must not vary across runs
        # or processes (unlike builtin str hashing).
        key = CandidateKey("db", "events", CandidateScope.TABLE)
        assert shard_for_key(key, 4) == shard_for_key(key, 4)
        assert [shard_for_key(key, n) for n in (1, 2, 3)] == [
            0,
            shard_for_key(key, 2),
            shard_for_key(key, 3),
        ]

    def test_distribution_is_not_degenerate(self):
        keys = [
            CandidateKey("db", f"table{i:06d}", CandidateScope.TABLE) for i in range(2000)
        ]
        counts = [0, 0, 0, 0]
        for key in keys:
            counts[shard_for_key(key, 4)] += 1
        assert sum(counts) == 2000
        # Each shard holds a reasonable share of a 2000-key fleet.
        assert all(300 < c < 700 for c in counts)

    def test_rejects_nonpositive_shard_count(self):
        key = CandidateKey("db", "t", CandidateScope.TABLE)
        with pytest.raises(ValidationError):
            shard_for_key(key, 0)


class TestSplitSelector:
    @given(k=st.integers(min_value=0, max_value=100), n=st.integers(min_value=1, max_value=9))
    @settings(max_examples=100)
    def test_topk_split_conserves_k(self, k, n):
        parts = split_selector(TopKSelector(k), n)
        assert len(parts) == n
        assert sum(p.k for p in parts) == max(k, 0)
        assert max(p.k for p in parts) - min(p.k for p in parts) <= 1

    def test_budget_split_conserves_budget_and_settings(self):
        selector = BudgetSelector(
            120.0, cost_trait="x", max_candidates=10, skip_unaffordable=False
        )
        parts = split_selector(selector, 4)
        assert sum(p.budget for p in parts) == pytest.approx(120.0)
        assert sum(p.max_candidates for p in parts) == 10
        assert all(p.cost_trait == "x" and not p.skip_unaffordable for p in parts)

    def test_all_selector_splits_to_all_selectors(self):
        assert all(isinstance(p, AllSelector) for p in split_selector(AllSelector(), 3))

    def test_unknown_selector_type_raises(self):
        class Weird(Selector):
            def select(self, ranked):
                return ranked

        with pytest.raises(ValidationError):
            split_selector(Weird(), 2)


# --- sharded / unsharded equivalence ----------------------------------------------


def _report_fields(report):
    # asdict recurses into the frozen keys/results, so equality here is a
    # field-for-field (bit-exact for floats) comparison.
    return dataclasses.asdict(report)


@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
def test_global_selection_equals_unsharded(n_shards):
    """The merged N-shard report must equal the unsharded report exactly."""
    config = FleetConfig(initial_tables=350, seed=91)
    model_a, model_b = FleetModel(config), FleetModel(config)
    model_a.step_day()
    model_b.step_day()
    unsharded = AutoCompStrategy(model_a, k=25)
    sharded = ShardedAutoCompStrategy(model_b, n_shards=n_shards, k=25)
    for day in range(3):
        now = float(day) * DAY
        single = unsharded.pipeline.run_cycle(now=now)
        merged = sharded.pipeline.run_cycle(now=now).report
        assert _report_fields(single) == _report_fields(merged)
        model_a.step_day()
        model_b.step_day()


def test_generation_merge_order_also_matches():
    config = FleetConfig(initial_tables=200, seed=17)
    model_a, model_b = FleetModel(config), FleetModel(config)
    model_a.step_day()
    model_b.step_day()
    unsharded = AutoCompStrategy(model_a, k=15)
    sharded = ShardedAutoCompStrategy(model_b, n_shards=3, k=15)
    sharded.pipeline.merge_order = "generation"
    single = unsharded.pipeline.run_cycle(now=0.0)
    merged = sharded.pipeline.run_cycle(now=0.0).report
    assert single.selected == merged.selected
    assert single.total_files_reduced == merged.total_files_reduced


def test_sharded_runs_are_deterministic():
    def selections():
        model = FleetModel(FleetConfig(initial_tables=250, seed=5))
        model.step_day()
        strategy = ShardedAutoCompStrategy(model, n_shards=4, k=20)
        out = []
        for day in range(3):
            out.append(tuple(strategy.pipeline.run_cycle(now=float(day) * DAY).selected))
            model.step_day()
        return out

    assert selections() == selections()


def test_shard_reports_partition_the_selection():
    model = FleetModel(FleetConfig(initial_tables=300, seed=8))
    model.step_day()
    strategy = ShardedAutoCompStrategy(model, n_shards=4, k=20)
    sharded = strategy.pipeline.run_cycle(now=0.0)
    per_shard = [key for report in sharded.shard_reports for key in report.selected]
    assert sorted(map(str, per_shard)) == sorted(map(str, sharded.report.selected))
    assert sum(r.candidates_generated for r in sharded.shard_reports) == (
        sharded.report.candidates_generated
    )


def test_local_selection_splits_the_budget():
    model = FleetModel(FleetConfig(initial_tables=300, seed=8))
    model.step_day()
    strategy = ShardedAutoCompStrategy(model, n_shards=4, k=20, selection="local")
    sharded = strategy.pipeline.run_cycle(now=0.0)
    assert len(sharded.report.selected) == 20
    assert all(len(r.selected) == 5 for r in sharded.shard_reports)
    assert len(sharded.report.results) == 20


class _CountingPolicy:
    """Delegates ranking to ``inner`` and counts the calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def rank(self, candidates):
        self.calls += 1
        return self.inner.rank(candidates)


class TestDecideConfigFollowsShards:
    """The fleet-level decide config is read from the shards every cycle."""

    @pytest.mark.parametrize("workers", ["threads", "processes"])
    def test_replaced_shard_selectors_drive_local_selection(self, workers):
        model = FleetModel(FleetConfig(initial_tables=300, seed=8))
        model.step_day()
        with ShardedAutoCompStrategy(
            model, n_shards=2, k=20, selection="local", workers=workers
        ) as strategy:
            pipeline = strategy.pipeline
            assert len(pipeline.run_cycle(now=0.0).report.selected) == 20
            model.step_day()
            for shard in pipeline.shards:
                shard.selector = TopKSelector(4)
            sharded = pipeline.run_cycle(now=DAY)
        assert [len(r.selected) for r in sharded.shard_reports] == [2, 2]
        assert len(sharded.report.selected) == 4

    def test_replaced_shard_policies_drive_global_selection(self):
        model = FleetModel(FleetConfig(initial_tables=150, seed=3))
        model.step_day()
        with ShardedAutoCompStrategy(model, n_shards=2, k=5) as strategy:
            pipeline = strategy.pipeline
            counting = _CountingPolicy(pipeline.policy)
            for shard in pipeline.shards:
                shard.policy = counting
            sharded = pipeline.run_cycle(now=0.0)
        assert counting.calls == 1  # one fleet-level rank, through the new policy
        assert len(sharded.report.selected) == 5


def test_per_shard_telemetry_is_scoped():
    telemetry = Telemetry()
    model = FleetModel(FleetConfig(initial_tables=150, seed=3))
    model.step_day()
    strategy = ShardedAutoCompStrategy(model, n_shards=2, k=5, telemetry=telemetry)
    strategy.pipeline.run_cycle(now=0.0)
    assert telemetry.counter("autocomp.fleet.cycles") == 1
    assert len(telemetry.series("autocomp.fleet.cycle_wall_s")) == 1
    for shard in range(2):
        series = telemetry.series(f"autocomp.shard{shard:02d}.candidates")
        assert len(series) == 1
    total = sum(
        telemetry.series(f"autocomp.shard{s:02d}.candidates").last() for s in range(2)
    )
    assert total == telemetry.series("autocomp.fleet.candidates").last()


class TestShardedPipelineValidation:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValidationError):
            ShardedPipeline([])

    def test_rejects_unknown_selection_mode(self):
        model = FleetModel(FleetConfig(initial_tables=50, seed=1))
        strategy = ShardedAutoCompStrategy(model, n_shards=1, k=3)
        with pytest.raises(ValidationError):
            ShardedPipeline(strategy.pipeline.shards, selection="quantum")

    def test_local_selection_rejects_an_unsplittable_selector(self):
        class Custom(Selector):
            def select(self, ranked):
                return ranked

        model = FleetModel(FleetConfig(initial_tables=50, seed=1))
        strategy = ShardedAutoCompStrategy(model, n_shards=2, k=3)
        for shard in strategy.pipeline.shards:
            shard.selector = Custom()
        with pytest.raises(ValidationError, match="split rule"):
            ShardedPipeline(strategy.pipeline.shards, selection="local")

    def test_rejects_unknown_merge_order(self):
        model = FleetModel(FleetConfig(initial_tables=50, seed=1))
        strategy = ShardedAutoCompStrategy(model, n_shards=1, k=3)
        with pytest.raises(ValidationError):
            ShardedPipeline(strategy.pipeline.shards, merge_order="random")


def test_long_run_cached_equivalence_includes_quota_drift():
    """Quota drifts daily while many tables stay clean; re-stamping on hits
    keeps the cached sharded run exactly equal to the cold unsharded one."""
    config = FleetConfig(initial_tables=300, seed=23)
    model_a, model_b = FleetModel(config), FleetModel(config)
    model_a.step_day()
    model_b.step_day()
    unsharded = AutoCompStrategy(model_a, k=20)
    sharded = ShardedAutoCompStrategy(model_b, n_shards=4, k=20)
    for day in range(10):
        now = float(day) * DAY
        single = unsharded.pipeline.run_cycle(now=now)
        merged = sharded.pipeline.run_cycle(now=now).report
        assert _report_fields(single) == _report_fields(merged), f"diverged on day {day}"
        model_a.step_day()
        model_b.step_day()


def test_fleet_sharded_listing_matches_hash_filtered_listing():
    """FleetConnector's vectorised digest slice must agree exactly with the
    generic consistent-hash filter for every shard."""
    from repro.fleet import FleetConnector

    model = FleetModel(FleetConfig(initial_tables=400, seed=13))
    model.step_day()
    connector = FleetConnector(model, min_small_files=2)
    full = connector.list_candidates("table")
    for n in (1, 2, 4, 8):
        slices = [connector.list_candidates_sharded("table", n, s) for s in range(n)]
        expected = [[k for k in full if shard_for_key(k, n) == s] for s in range(n)]
        assert slices == expected
        assert sum(len(s) for s in slices) == len(full)


def test_shard_memo_is_bounded_for_fresh_key_objects():
    """Connectors that rebuild key objects each cycle must not grow the
    assignment memo (which pins keys) without bound."""
    model = FleetModel(FleetConfig(initial_tables=50, seed=1))
    strategy = ShardedAutoCompStrategy(model, n_shards=2, k=3)
    pipeline = strategy.pipeline
    pipeline._shard_memo_limit = 16
    for i in range(200):
        key = CandidateKey("db", f"fresh{i}", CandidateScope.TABLE)
        assert pipeline._shard_for(key) == shard_for_key(key, 2)
    assert len(pipeline._shard_of) <= 17
