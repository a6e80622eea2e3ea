"""Tests for the LST-Bench-like runner and §6.3 tuning workloads.

The three Figure 9 claims are asserted directly here (at reduced scale):
WP1 has a useful interior optimum, WP3 benefits consistently, and TPC-H's
best configuration is no auto-compaction at all.
"""

from __future__ import annotations

import pytest

from repro.core.traits import FileCountReductionTrait, FileEntropyTrait
from repro.errors import ValidationError
from repro.workloads import LstBenchRun, PhaseResult
from repro.workloads.lstbench import run_tpch, run_wp1, run_wp3

FAST = dict(scale_factor=1.0, cycles=3, writes_per_cycle=5, queries_per_cycle=6)


def compactions(run: LstBenchRun) -> int:
    """Hook-triggered compactions across a run's phases."""
    return sum(phase.compactions for phase in run.phases)


class TestPhaseRunner:
    def test_run_accumulators(self):
        run = LstBenchRun(workload="w")
        run.phases.append(PhaseResult("a", 1.0, 1, compactions=2))
        run.phases.append(PhaseResult("b", 2.0, 1, compactions=1))
        assert run.total_duration_s == 3.0
        assert compactions(run) == 3


class TestWp1:
    def test_no_trigger_means_no_compactions(self):
        run = run_wp1(None, **FAST)
        assert compactions(run) == 0
        assert run.total_duration_s > 0

    def test_low_threshold_compacts_often(self):
        eager = run_wp1(FileCountReductionTrait(), 10, **FAST)
        lazy = run_wp1(FileCountReductionTrait(), 10_000, **FAST)
        assert compactions(eager) > compactions(lazy)

    def test_interior_optimum_exists(self):
        """Figure 9a's shape: a tuned threshold beats both extremes.

        Needs the full default scale — at the reduced FAST scale
        fragmentation never accumulates enough for compaction to pay off
        (which is itself the TPC-H lesson of Figure 9b).
        """
        none = run_wp1(None)
        eager = run_wp1(FileCountReductionTrait(), 10)
        tuned = run_wp1(FileCountReductionTrait(), 500)
        assert tuned.total_duration_s < none.total_duration_s
        assert tuned.total_duration_s < eager.total_duration_s

    def test_entropy_trigger_comparable(self):
        """Figure 9c: entropy and file-count triggers behave similarly."""
        count_run = run_wp1(FileCountReductionTrait(), 400, **FAST)
        entropy_run = run_wp1(FileEntropyTrait(), 400, **FAST)
        ratio = entropy_run.total_duration_s / count_run.total_duration_s
        assert 0.7 < ratio < 1.4

    def test_deterministic(self):
        a = run_wp1(FileCountReductionTrait(), 300, **FAST)
        b = run_wp1(FileCountReductionTrait(), 300, **FAST)
        assert a.total_duration_s == b.total_duration_s

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_wp1(cycles=0)


class TestWp3:
    def test_compaction_beneficial(self):
        """Figure 9d: decoupled clusters make compaction a consistent win.

        Run at the full default scale, where fragmentation actually bites.
        """
        none = run_wp3(None)
        tuned = run_wp3(FileCountReductionTrait(), 500)
        assert tuned.total_duration_s < none.total_duration_s

    def test_phases_cycle_structured(self):
        run = run_wp3(None, **FAST)
        assert len(run.phases) == FAST["cycles"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_wp3(cycles=0)


class TestTpch:
    def test_default_no_compaction_is_best(self):
        """Figure 9b: TPC-H's unpartitioned tables make compaction a loss."""
        none = run_tpch(None, scale_factor=1.0, modification_rounds=8, queries=8)
        compacting = run_tpch(
            FileCountReductionTrait(), 30, scale_factor=1.0, modification_rounds=8, queries=8
        )
        assert none.total_duration_s < compacting.total_duration_s

    def test_tables_unpartitioned(self):
        run = run_tpch(None, scale_factor=0.5, modification_rounds=2, queries=2)
        assert run.workload == "tpch"

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_tpch(modification_rounds=0)
