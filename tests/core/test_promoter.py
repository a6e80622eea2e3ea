"""Tests for the policy plane: PolicyStore, audit replay, PolicyPromoter."""

from __future__ import annotations

import json
import os
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core import (
    AutoCompService,
    MinTableAgeFilter,
    PolicyPromoter,
    PolicyStore,
    apply_variant,
    openhouse_pipeline,
    openhouse_sharded_pipeline,
    read_promotions,
    replay_promotions,
    verify_promotions,
)
from repro.catalog.catalog import TableCommit
from repro.core.filters import MinSmallFileCountFilter, QuiescenceFilter
from repro.engine import Cluster
from repro.errors import ValidationError
from repro.lst.files import DataFile
from repro.replay import PolicyVariant
from repro.units import HOUR, MiB

from tests.conftest import fragment_table

ACTIVE = PolicyVariant(name="boot", k=10)
CHALLENGER = PolicyVariant(name="eager", k=20, benefit_weight=0.8)
THIRD = PolicyVariant(name="lazy", k=4, trigger_interval_days=2)


# --- PolicyStore ------------------------------------------------------------------


class TestPolicyStore:
    def test_initialize_is_idempotent(self, tmp_path):
        store = PolicyStore(tmp_path)
        assert store.version is None and store.state is None and store.active is None
        assert store.initialize(ACTIVE, pool=[CHALLENGER])
        assert not store.initialize(CHALLENGER)  # restart must not clobber
        assert store.version == 1
        assert store.state == "STABLE"
        assert store.active == ACTIVE
        assert store.pool() == [CHALLENGER]

    def test_variant_round_trips_through_disk(self, tmp_path):
        PolicyStore(tmp_path).initialize(CHALLENGER)
        assert PolicyStore(tmp_path).active == CHALLENGER

    def test_pool_names_must_be_unique(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        with pytest.raises(ValidationError):
            store.set_pool([CHALLENGER, PolicyVariant(name="eager")])

    def test_promote_guard_confirm_lifecycle(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        version = store.promote(CHALLENGER, guard={"cycles": 2})
        assert version == 2
        assert store.state == "GUARD"
        assert store.active == CHALLENGER
        assert store.previous == ACTIVE
        assert store.guard == {"cycles": 2}
        store.confirm(metrics={"efficiency": 1.0})
        assert store.state == "STABLE"
        assert store.version == 2  # confirm keeps the promoted version
        assert store.previous is None and store.guard is None

    def test_rollback_restores_previous(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        store.promote(CHALLENGER)
        version = store.rollback(reason="degraded", metrics={"efficiency": 0.1})
        assert version == 3  # rollback is its own version bump
        assert store.state == "STABLE"
        assert store.active == ACTIVE

    def test_transition_preconditions(self, tmp_path):
        store = PolicyStore(tmp_path)
        with pytest.raises(ValidationError):
            store.promote(CHALLENGER)  # not initialised
        store.initialize(ACTIVE)
        with pytest.raises(ValidationError):
            store.rollback()  # STABLE has nothing to roll back
        with pytest.raises(ValidationError):
            store.confirm()
        store.promote(CHALLENGER)
        with pytest.raises(ValidationError):
            store.promote(THIRD)  # no stacking promotions under GUARD

    def test_snapshot_is_json_safe(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE, pool=[CHALLENGER, THIRD])
        store.promote(CHALLENGER, guard={"cycles": 3})
        snapshot = store.snapshot()
        json.dumps(snapshot)
        assert snapshot["version"] == 2
        assert snapshot["state"] == "GUARD"
        assert snapshot["active"] == "eager"
        assert snapshot["previous"] == "boot"
        assert snapshot["pool"] == ["eager", "lazy"]

    def test_pool_reads_see_every_sibling_rewrite_whole(self, tmp_path):
        # pool() re-parses pool.json only when its (inode, mtime, size)
        # changes; readers racing a sibling store's rewrites must see one
        # whole written pool each time, and the last one once they settle.
        reader = PolicyStore(tmp_path)
        reader.initialize(ACTIVE, pool=[ACTIVE])
        writer = PolicyStore(tmp_path)
        pools = [[ACTIVE], [CHALLENGER], [CHALLENGER, THIRD], [THIRD, ACTIVE]]
        seen, errors = [], []

        def read() -> None:
            try:
                for _ in range(300):
                    seen.append([v.name for v in reader.pool()])
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for i in range(40):
                writer.set_pool(pools[i % len(pools)])
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert {tuple(names) for names in seen} <= {
            tuple(v.name for v in pool) for pool in pools
        }
        assert reader.pool() == pools[39 % len(pools)]

    def test_state_survives_reopen_mid_guard(self, tmp_path):
        first = PolicyStore(tmp_path)
        first.initialize(ACTIVE)
        first.promote(CHALLENGER, guard={"cycles": 2, "baseline": {"efficiency": 5.0}})
        second = PolicyStore(tmp_path)
        assert second.recovered_action is None  # clean log: nothing to do
        assert second.state == "GUARD"
        assert second.guard["baseline"] == {"efficiency": 5.0}
        second.rollback(reason="after restart")
        assert second.active == ACTIVE


# --- crash recovery ---------------------------------------------------------------


class TestCrashRecovery:
    def crash_between_intent_and_flip(self, tmp_path, op="promote"):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        if op == "rollback":
            store.promote(CHALLENGER)

        def die(op_name, variant_name):
            raise KeyboardInterrupt  # stands in for kill -9 inside the window

        store.promote_hook = die
        with pytest.raises(KeyboardInterrupt):
            if op == "promote":
                store.promote(THIRD)
            else:
                store.rollback(reason="x")
        return store.version

    def test_intent_without_flip_is_aborted(self, tmp_path):
        version_before = self.crash_between_intent_and_flip(tmp_path, op="promote")
        reopened = PolicyStore(tmp_path)
        assert reopened.recovered_action.startswith("aborted promote")
        assert reopened.version == version_before
        assert reopened.state == "STABLE"
        assert verify_promotions(tmp_path).violations == []
        # The aborted attempt leaves the store fully usable.
        reopened.promote(THIRD)
        assert reopened.active == THIRD

    def test_rollback_intent_without_flip_is_aborted(self, tmp_path):
        self.crash_between_intent_and_flip(tmp_path, op="rollback")
        reopened = PolicyStore(tmp_path)
        assert reopened.recovered_action.startswith("aborted rollback")
        assert reopened.state == "GUARD"  # still judging the promotion
        assert verify_promotions(tmp_path).violations == []

    def test_flip_without_commit_line_is_completed(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        store.promote(CHALLENGER)
        # Drop the trailing commit line: the crash landed after the
        # active.json flip but before the audit append.
        with open(store.audit_path, encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        assert json.loads(lines[-1])["event"] == "promote"
        with open(store.audit_path, "w", encoding="utf-8") as stream:
            stream.write("\n".join(lines[:-1]) + "\n")
        reopened = PolicyStore(tmp_path)
        assert reopened.recovered_action == "completed promote v2"
        assert reopened.version == 2
        assert reopened.active == CHALLENGER
        events = read_promotions(tmp_path)
        assert events[-1]["event"] == "promote" and events[-1]["recovered"]
        assert verify_promotions(tmp_path).violations == []

    def test_guard_pass_flip_lost_is_completed(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        store.promote(CHALLENGER)
        # confirm() audits first, flips second; emulate dying in between.
        store._audit("guard_pass", version=2, variant="eager", metrics={})
        reopened = PolicyStore(tmp_path)
        assert reopened.recovered_action == "completed guard_pass v2"
        assert reopened.state == "STABLE"
        assert reopened.version == 2
        assert reopened.active == CHALLENGER
        assert verify_promotions(tmp_path).violations == []

    def test_torn_active_file_resolves_via_abort(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        store._audit("promote_intent", to_version=2, variant="eager", from_variant="boot")
        with open(os.path.join(tmp_path, "active.json"), "w") as stream:  # repro-lint: disable=RL002 -- deliberately torn write: the test simulates a crashed non-atomic writer
            stream.write('{"version": 2, "sta')  # kill -9 mid-rewrite... of a non-atomic writer
        reopened = PolicyStore(tmp_path)
        assert reopened.recovered_action.startswith("aborted promote")
        assert reopened.version is None  # torn file reads as missing


# --- audit replay / verification --------------------------------------------------


class TestPromotionReplay:
    def test_clean_history_counts_and_final_state(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE, pool=[CHALLENGER])
        store.record_shadow({"decision": "hold"})
        store.promote(CHALLENGER)
        store.confirm()
        store.promote(THIRD)
        store.rollback(reason="bad")
        summary = verify_promotions(tmp_path)
        assert summary.violations == []
        assert summary.promotions == 2
        assert summary.rollbacks == 1
        assert summary.guard_passes == 1
        assert summary.shadows == 1
        assert summary.final_version == 4
        assert summary.final_state == "STABLE"
        assert summary.final_variant == "eager"

    def test_replay_flags_commit_without_intent(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        store._audit("promote", version=2, variant="eager")
        summary = replay_promotions(tmp_path)
        assert any("no matching intent" in v for v in summary.violations)

    def test_replay_flags_version_skip(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        store._audit("promote_intent", to_version=5, variant="eager", from_variant="boot")
        store._audit("promote", version=5, variant="eager")
        summary = replay_promotions(tmp_path)
        assert any("does not follow" in v for v in summary.violations)

    def test_replay_flags_unresolved_intent(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        store._audit("promote_intent", to_version=2, variant="eager", from_variant="boot")
        summary = replay_promotions(tmp_path)
        assert any("unresolved" in v for v in summary.violations)

    def test_verify_flags_active_file_divergence(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        record = dict(store._active)
        record["version"] = 7
        store._write_json(store._active_path, record)
        summary = verify_promotions(tmp_path)
        assert any("active.json v7" in v for v in summary.violations)

    def test_missing_log_and_torn_lines_are_tolerated(self, tmp_path):
        assert read_promotions(tmp_path) == []
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        with open(store.audit_path, "a", encoding="utf-8") as stream:
            stream.write('{"event": "prom')  # torn tail line
        assert [e["event"] for e in read_promotions(tmp_path)] == ["init"]
        assert verify_promotions(tmp_path).violations == []

    def test_verify_reports_a_record_lost_mid_log(self, tmp_path):
        store = PolicyStore(tmp_path)
        store.initialize(ACTIVE)
        with open(store.audit_path, "a", encoding="utf-8") as stream:
            stream.write('{"event": "prom{"event":"shadow"}\n')  # torn, then glued
        store.record_shadow({"variant": "eager"})
        violations = verify_promotions(tmp_path).violations
        assert [v.split(":")[0] for v in violations] == ["audit.jsonl line 2"]
        assert [e["event"] for e in read_promotions(tmp_path)] == ["init", "shadow"]


# --- applying variants to live pipelines ------------------------------------------


def build_fleet(catalog, simple_schema, monthly_spec, tables=3):
    catalog.create_database("db", quota_objects=100_000)
    for i in range(tables):
        table = catalog.create_table(f"db.t{i}", simple_schema, spec=monthly_spec)
        fragment_table(table, partitions=[(0,)], files_per_partition=8)
    catalog.clock.advance_by(2 * HOUR)
    return catalog


class TestApplyVariant:
    def test_swaps_policy_selector_and_policy_filters(
        self, catalog, simple_schema, monthly_spec
    ):
        fleet = build_fleet(catalog, simple_schema, monthly_spec)
        pipeline = openhouse_pipeline(fleet, Cluster("maint", executors=2))
        variant = PolicyVariant(
            name="v", k=3, min_small_files=4, quiesce_days=2.0, generation="partition"
        )
        apply_variant(pipeline, variant)
        assert pipeline.selector.k == 3
        assert pipeline.generation == "partition"
        small = [f for f in pipeline.stats_filters if isinstance(f, MinSmallFileCountFilter)]
        assert len(small) == 1 and small[0].min_small_files == 4
        assert any(isinstance(f, QuiescenceFilter) for f in pipeline.stats_filters)
        # Deployment-owned filters survive the swap.
        assert any(isinstance(f, MinTableAgeFilter) for f in pipeline.stats_filters)
        # Re-applying replaces rather than stacks the policy filters.
        apply_variant(pipeline, PolicyVariant(name="w", k=5, quiesce_days=0.0))
        assert (
            len([f for f in pipeline.stats_filters if isinstance(f, MinSmallFileCountFilter)])
            == 1
        )
        assert not any(isinstance(f, QuiescenceFilter) for f in pipeline.stats_filters)

    def test_sharded_pipeline_updates_every_shard(
        self, catalog, simple_schema, monthly_spec
    ):
        fleet = build_fleet(catalog, simple_schema, monthly_spec)
        pipeline = openhouse_sharded_pipeline(
            fleet, Cluster("maint", executors=2), n_shards=2, max_workers=1
        )
        try:
            apply_variant(pipeline, PolicyVariant(name="v", k=3))
            assert all(shard.selector.k == 3 for shard in pipeline.shards)
            assert pipeline.selector.k == 3
            report = pipeline.run_cycle()  # still runs end to end
            assert report.report.cycle_index == 0
        finally:
            pipeline.close()


    def test_sharded_local_pipeline_splits_the_new_budget(
        self, catalog, simple_schema, monthly_spec
    ):
        fleet = build_fleet(catalog, simple_schema, monthly_spec, tables=6)
        pipeline = openhouse_sharded_pipeline(
            fleet,
            Cluster("maint", executors=2),
            n_shards=2,
            selection="local",
            max_workers=1,
            min_table_age_s=0.0,
        )
        try:
            apply_variant(pipeline, PolicyVariant(name="v", k=1))
            report = pipeline.run_cycle()
        finally:
            pipeline.close()
        # k=1 splits into per-shard budgets of 1 and 0.
        assert [len(r.selected) for r in report.shard_reports] == [1, 0]


# --- the promoter against a scripted service --------------------------------------


def score(variant, efficiency):
    return SimpleNamespace(variant=variant, efficiency=efficiency)


class FakeReport:
    def __init__(self, scores):
        self.scores = scores

    def ranked(self):
        return sorted(self.scores, key=lambda s: -s.efficiency)

    def best(self):
        return self.ranked()[0]

    def to_priors(self):
        best = self.best()
        return {"k": float(best.variant.k or 0), "benefit_weight": best.variant.benefit_weight}


class FakeService:
    """Just the surface PolicyPromoter.attach()/step() touch."""

    def __init__(self, report=None, history_cycles=5):
        self.pipeline = SimpleNamespace(telemetry=None, tracer=None)
        self.cycle_hooks = []
        self.policy_store = None
        self._history = SimpleNamespace(
            trace=lambda: SimpleNamespace(
                events=[{"kind": "cycle"}] * history_cycles
            )
        )
        self._history_taps = None
        self.report = report
        self.eval_calls = 0

    def use_policy_store(self, store):
        self.policy_store = store

    def enable_history(self):
        return self._history

    def evaluate_recent(self, variants):
        self.eval_calls += 1
        return self.report


def live_report(files=20, gbhr=2.0, rewritten=100 * MiB, candidates=5):
    result = SimpleNamespace(rewritten_bytes=rewritten, success=True)
    return SimpleNamespace(
        candidates_generated=candidates,
        results=[result],
        total_files_reduced=files,
        total_gbhr=gbhr,
    )


def commit(op, size):
    """A one-file ``table_commit`` record as the catalog publishes it."""
    added = [DataFile(1, "/data/db/t/data/part-00000001.parquet", size, 1, ("p",))]
    return TableCommit(0.0, "db", "t", op, added, [], frozenset(), 1)


def make_promoter(tmp_path, report=None, pool=(CHALLENGER,), **kwargs):
    store = PolicyStore(tmp_path)
    store.initialize(ACTIVE, pool=list(pool))
    promoter = PolicyPromoter(store, **kwargs)
    service = FakeService(report=report)
    promoter.attach(service)
    return promoter, store, service


class TestPromoterStep:
    def test_step_requires_attachment_and_initialised_store(self, tmp_path):
        promoter = PolicyPromoter(PolicyStore(tmp_path))
        with pytest.raises(ValidationError):
            promoter.step()
        promoter.attach(FakeService())
        with pytest.raises(ValidationError):
            promoter.step()  # store never initialised

    def test_attach_is_idempotent_but_single_service(self, tmp_path):
        promoter, _, service = make_promoter(tmp_path)
        assert promoter.attach(service) is promoter
        assert service.cycle_hooks == [promoter.observe_cycle]  # not doubled
        with pytest.raises(ValidationError):
            promoter.attach(FakeService())

    def test_empty_pool_holds(self, tmp_path):
        promoter, _, service = make_promoter(tmp_path, pool=[ACTIVE])
        decision = promoter.step()
        assert decision == {"action": "hold", "reason": "empty_pool"}
        assert service.eval_calls == 0
        assert promoter.holds == 1

    def test_insufficient_history_holds(self, tmp_path):
        report = FakeReport([score(ACTIVE, 1.0), score(CHALLENGER, 9.0)])
        promoter, _, service = make_promoter(
            tmp_path, report=report, min_history_cycles=10
        )
        decision = promoter.step()
        assert decision["reason"] == "insufficient_history"
        assert service.eval_calls == 0

    def test_no_clear_winner_never_churns(self, tmp_path):
        # 3% better than active: inside the 5% margin, so hold — repeatedly.
        report = FakeReport([score(ACTIVE, 1.00), score(CHALLENGER, 1.03)])
        promoter, store, _ = make_promoter(tmp_path, report=report)
        for _ in range(3):
            decision = promoter.step()
            assert decision["action"] == "hold"
            assert decision["reason"] == "no_clear_winner"
        assert store.version == 1  # the active policy was never touched
        assert promoter.shadow_evals == 3
        summary = verify_promotions(store.store_dir)
        assert summary.shadows == 3 and summary.promotions == 0

    def test_clear_winner_promotes_with_guard_baseline(self, tmp_path):
        report = FakeReport([score(ACTIVE, 1.0), score(CHALLENGER, 2.0)])
        promoter, store, _ = make_promoter(tmp_path, report=report, guard_cycles=2)
        promoter.observe_cycle(live_report(files=30, gbhr=3.0))  # pre-promotion live metric
        decision = promoter.step()
        assert decision["action"] == "promote"
        assert decision["variant"] == "eager"
        assert decision["over"] == "boot"
        assert store.state == "GUARD"
        assert store.version == 2
        guard = store.guard
        assert guard["cycles"] == 2
        assert guard["baseline"]["efficiency"] == pytest.approx(10.0)
        assert guard["shadow"] == {"winner": 2.0, "active": 1.0}
        assert promoter.warm_start["k"] == float(CHALLENGER.k)

    def test_guard_window_blocks_further_promotions(self, tmp_path):
        report = FakeReport([score(ACTIVE, 1.0), score(CHALLENGER, 2.0)])
        promoter, store, service = make_promoter(tmp_path, report=report)
        promoter.step()
        calls = service.eval_calls
        decision = promoter.step()
        assert decision["action"] == "guard_wait"
        assert service.eval_calls == calls  # no shadow evaluation during GUARD
        assert store.version == 2

    def test_status_is_json_safe(self, tmp_path):
        report = FakeReport([score(ACTIVE, 1.0), score(CHALLENGER, 2.0)])
        promoter, _, _ = make_promoter(tmp_path, report=report)
        promoter.step()
        status = promoter.status()
        json.dumps(status)
        assert status["attached"] and status["promotions"] == 1
        assert status["store"]["state"] == "GUARD"

    def test_validation(self, tmp_path):
        store = PolicyStore(tmp_path)
        with pytest.raises(ValidationError):
            PolicyPromoter(store, guard_cycles=0)
        with pytest.raises(ValidationError):
            PolicyPromoter(store, min_history_cycles=0)


class TestGuardWindow:
    def promote_with_baseline(self, tmp_path, baseline_eff=10.0, **kwargs):
        report = FakeReport([score(ACTIVE, 1.0), score(CHALLENGER, 2.0)])
        promoter, store, service = make_promoter(
            tmp_path, report=report, guard_cycles=2, **kwargs
        )
        promoter.observe_cycle(live_report(files=int(baseline_eff * 3), gbhr=3.0))
        assert promoter.step()["action"] == "promote"
        return promoter, store, service

    def test_idle_cycles_carry_no_evidence(self, tmp_path):
        promoter, store, _ = self.promote_with_baseline(tmp_path)
        idle = SimpleNamespace(
            candidates_generated=0, results=[], total_files_reduced=0, total_gbhr=0.0
        )
        for _ in range(5):
            promoter.observe_cycle(idle)
        assert store.state == "GUARD"  # the window never advanced

    def test_degradation_rolls_back(self, tmp_path):
        promoter, store, _ = self.promote_with_baseline(tmp_path, baseline_eff=10.0)
        # Injected degradation: efficiency collapses to 1/30th of baseline.
        promoter.observe_cycle(live_report(files=1, gbhr=3.0))
        promoter.observe_cycle(live_report(files=1, gbhr=3.0))
        assert store.state == "STABLE"
        assert store.active == ACTIVE  # the boot policy is back
        assert promoter.rollbacks == 1
        assert promoter.last_decision["action"] == "rollback"
        assert any("efficiency" in d for d in promoter.last_decision["degraded"])
        summary = verify_promotions(store.store_dir)
        assert summary.violations == []
        assert summary.rollbacks == 1
        evidence = [e for e in read_promotions(store.store_dir) if e["event"] == "rollback_evidence"]
        assert len(evidence) == 1 and evidence[0]["reason"]

    def test_guard_tolerance_allows_mild_regression(self, tmp_path):
        promoter, store, _ = self.promote_with_baseline(tmp_path, baseline_eff=10.0)
        # 10% worse with 25% tolerance: confirmed, not rolled back.
        promoter.observe_cycle(live_report(files=27, gbhr=3.0))
        promoter.observe_cycle(live_report(files=27, gbhr=3.0))
        assert store.state == "STABLE"
        assert store.active == CHALLENGER  # the promotion stuck
        assert promoter.guard_passes == 1 and promoter.rollbacks == 0

    def test_write_amplification_degradation_rolls_back(self, tmp_path):
        promoter, store, _ = self.promote_with_baseline(tmp_path)
        # Make write-amp explode: same efficiency, 100x the rewrite per ingest.
        baseline = store.guard["baseline"]
        assert baseline["write_amplification"] == 0.0  # no ingest observed yet
        # Seed a positive baseline by hand so the ceiling check is live.
        record = dict(store._active)
        record["guard"] = dict(record["guard"])
        record["guard"]["baseline"] = {
            "efficiency": 10.0,
            "write_amplification": 0.5,
            "gbhr": 3.0,
            "files_reduced": 30.0,
        }
        store._write_json(store._active_path, record)
        store._active = record
        promoter._on_commit("table_commit", commit("append", MiB))
        promoter.observe_cycle(live_report(files=30, gbhr=3.0, rewritten=100 * MiB))
        promoter._on_commit("table_commit", commit("append", MiB))
        promoter.observe_cycle(live_report(files=30, gbhr=3.0, rewritten=100 * MiB))
        assert store.state == "STABLE"
        assert store.active == ACTIVE
        assert any("write_amplification" in d for d in promoter.last_decision["degraded"])

    def test_replace_commits_do_not_count_as_ingest(self, tmp_path):
        promoter, _, _ = make_promoter(tmp_path)
        promoter._on_commit("table_commit", commit("replace", MiB))
        assert promoter._drain_ingested() == 0
        promoter._on_commit("table_commit", commit("append", 2 * MiB))
        assert promoter._drain_ingested() == 2 * MiB


# --- against a real service -------------------------------------------------------


class TestPromoterOnRealService:
    def build(self, catalog, simple_schema, monthly_spec, tmp_path):
        fleet = build_fleet(catalog, simple_schema, monthly_spec, tables=4)
        pipeline = openhouse_pipeline(
            fleet, Cluster("maint", executors=2), min_table_age_s=0.0
        )
        service = AutoCompService(pipeline)
        store = PolicyStore(tmp_path / "policy")
        # The boot variant is useless (its small-file floor filters every
        # candidate); every real challenger beats it deterministically.
        dud = PolicyVariant(name="dud", k=10, min_small_files=500)
        store.initialize(
            dud, pool=[dud, PolicyVariant(name="k10", k=10), PolicyVariant(name="k2", k=2)]
        )
        promoter = PolicyPromoter(store, guard_cycles=1, min_history_cycles=1)
        promoter.attach(service)
        return fleet, service, store, promoter

    def run_cycles(self, fleet, service, n=2):
        for _ in range(n):
            for table in fleet.database("db").tables.values():
                fragment_table(table, partitions=[(0,)], files_per_partition=4,
                               file_size=4 * MiB)
            fleet.clock.advance_by(HOUR)
            service.run_cycle(now=fleet.clock.now)

    def test_shadow_eval_promotes_and_next_cycle_applies(
        self, catalog, simple_schema, monthly_spec, tmp_path
    ):
        fleet, service, store, promoter = self.build(
            catalog, simple_schema, monthly_spec, tmp_path
        )
        self.run_cycles(fleet, service, n=2)
        decision = promoter.step()
        assert decision["action"] == "promote"
        assert decision["over"] == "dud"
        assert store.state == "GUARD"
        # The next live cycle resolves the promoted policy through the
        # store seam and runs under it...
        self.run_cycles(fleet, service, n=1)
        applied = [
            f for f in service.pipeline.stats_filters
            if isinstance(f, MinSmallFileCountFilter)
        ]
        assert applied and applied[0].min_small_files < 500
        # ...and with guard_cycles=1 that one productive cycle judged the
        # window (the dud baseline had zero efficiency, so no degradation).
        assert store.state == "STABLE"
        assert promoter.guard_passes == 1
        summary = verify_promotions(store.store_dir)
        assert summary.violations == []
        assert summary.promotions == 1 and summary.guard_passes == 1

    def test_promoter_counters_reach_telemetry(
        self, catalog, simple_schema, monthly_spec, tmp_path
    ):
        fleet, service, store, promoter = self.build(
            catalog, simple_schema, monthly_spec, tmp_path
        )
        self.run_cycles(fleet, service, n=2)
        promoter.step()
        telemetry = service.pipeline.telemetry
        assert telemetry.counter("autocomp.promoter.shadow_evals") == 1
        assert telemetry.counter("autocomp.promoter.promotions") == 1
        assert telemetry.series("autocomp.promoter.active_version").last() == 2
        assert telemetry.histogram("autocomp.hist.promoter_eval_wall_s").count == 1
