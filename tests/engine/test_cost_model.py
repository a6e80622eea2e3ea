"""Tests for the analytic cost model.

Beyond unit behaviour, these tests pin the *causal* properties the paper
depends on: many small files must cost more than few large ones for the
same bytes, MoR delete files must add latency, and the GBHr formula must
match §4.2 exactly.
"""

from __future__ import annotations

import pytest

from repro.core import CandidateStatistics
from repro.core.traits import ComputeCostTrait
from repro.engine import CostModel
from repro.errors import ValidationError
from repro.lst import DataFile, DeleteFile
from repro.lst.base import ScanPlan
from repro.units import GiB, MiB


def _plan(sizes, manifests=1, deletes=()):
    files = tuple(
        DataFile(
            file_id=i + 1,
            path=f"/t/f{i}.parquet",
            size_bytes=size,
            record_count=size // 128 + 1,
        )
        for i, size in enumerate(sizes)
    )
    return ScanPlan(files=files, delete_files=tuple(deletes), manifests_read=manifests)


class TestPlanningLatency:
    def test_grows_with_manifests(self):
        model = CostModel()
        few = model.planning_latency(_plan([MiB], manifests=1))
        many = model.planning_latency(_plan([MiB], manifests=50))
        assert many > few
        assert many - few == pytest.approx(49 * model.manifest_read_s)

    def test_grows_with_file_count(self):
        model = CostModel()
        few = model.planning_latency(_plan([MiB] * 2))
        many = model.planning_latency(_plan([MiB] * 2000))
        assert many > few


class TestReadLatency:
    def test_small_files_cost_more_for_same_bytes(self):
        """The paper's core mechanism: fragmentation slows queries."""
        model = CostModel()
        total = 1 * GiB
        packed = _plan([512 * MiB, 512 * MiB])
        fragmented = _plan([MiB] * 1024)
        assert model.read_latency(fragmented, 32) > 2 * model.read_latency(packed, 32)

    def test_parallelism_helps(self):
        model = CostModel()
        plan = _plan([256 * MiB] * 8)
        assert model.read_latency(plan, 64) < model.read_latency(plan, 4)

    def test_small_read_floor_applies(self):
        model = CostModel(small_read_floor=16 * MiB)
        tiny = _plan([1 * MiB])
        floored = model.effective_scan_bytes(tiny)
        assert floored == 16 * MiB

    def test_floor_does_not_inflate_large_files(self):
        model = CostModel(small_read_floor=16 * MiB)
        assert model.effective_scan_bytes(_plan([512 * MiB])) == 512 * MiB

    def test_empty_plan_costs_only_planning(self):
        model = CostModel()
        plan = _plan([], manifests=0)
        assert model.read_latency(plan, 8) == pytest.approx(model.base_planning_s)


class TestMergeOnRead:
    def _delete(self, refs, size=MiB):
        return DeleteFile(
            file_id=999,
            path="/t/d.parquet",
            size_bytes=size,
            record_count=100,
            references=frozenset(refs),
        )

    def test_delete_files_add_latency(self):
        model = CostModel()
        base = _plan([256 * MiB] * 4)
        with_deletes = _plan([256 * MiB] * 4, deletes=[self._delete({1, 2})])
        assert model.read_latency(with_deletes, 16) > model.read_latency(base, 16)

    def test_no_deletes_no_merge_cost(self):
        model = CostModel()
        assert model.merge_on_read_seconds(_plan([MiB]), 8) == 0.0

    def test_merge_cost_scales_with_affected_files(self):
        model = CostModel()
        few = _plan([MiB] * 10, deletes=[self._delete({1})])
        many = _plan([MiB] * 10, deletes=[self._delete(set(range(1, 11)))])
        assert model.merge_on_read_seconds(many, 8) > model.merge_on_read_seconds(few, 8)


class TestWriteAndRewrite:
    def test_write_latency_scales_with_files(self):
        model = CostModel()
        one = model.write_latency(1 * GiB, 1, 32)
        many = model.write_latency(1 * GiB, 1000, 32)
        assert many > one

    def test_rewrite_duration_scales_with_bytes_and_executors(self):
        model = CostModel()
        small = model.rewrite_duration(1 * GiB, executors=4)
        big = model.rewrite_duration(10 * GiB, executors=4)
        more_exec = model.rewrite_duration(10 * GiB, executors=8)
        assert big > small
        assert more_exec < big

    def test_rewrite_startup_floor(self):
        model = CostModel(compaction_startup_s=30.0)
        assert model.rewrite_duration(0, executors=4) == 30.0


class TestGbhrFormula:
    def test_paper_formula_verbatim(self):
        """GBHr_c = ExecutorMemoryGB × (DataSize_c / RewriteBytesPerHour), with
        RewriteBytesPerHour from the cost model, as ``openhouse_pipeline``
        composes them."""
        model = CostModel(rewrite_bytes_per_executor_s=64 * MiB)
        executors = 3
        rbph = model.rewrite_bytes_per_hour(executors)
        assert rbph == executors * 64 * MiB * 3600
        memory = 192.0
        trait = ComputeCostTrait(executor_memory_gb=memory, rewrite_bytes_per_hour=rbph)
        data_size = 10 * GiB  # all of it in files below the target
        stats = CandidateStatistics.from_file_sizes([data_size], target_file_size=20 * GiB)
        assert trait.compute(stats) == pytest.approx(memory * (data_size / rbph))

    def test_invalid_throughputs_rejected(self):
        with pytest.raises(ValidationError):
            CostModel(scan_bytes_per_core_s=0)
        with pytest.raises(ValidationError):
            CostModel(rewrite_bytes_per_executor_s=-1)
