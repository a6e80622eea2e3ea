"""Tests for partition specs and transforms."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.lst import (
    BucketTransform,
    DayTransform,
    IdentityTransform,
    MonthTransform,
    PartitionField,
    PartitionSpec,
)
from repro.lst.partitioning import DAYS_PER_MONTH


class TestTransforms:
    def test_identity(self):
        assert IdentityTransform().apply("hello") == "hello"

    def test_month_groups_by_30_days(self):
        transform = MonthTransform()
        assert transform.apply(0) == 0
        assert transform.apply(DAYS_PER_MONTH - 1) == 0
        assert transform.apply(DAYS_PER_MONTH) == 1
        assert transform.apply(5 * DAYS_PER_MONTH + 3) == 5

    def test_day(self):
        assert DayTransform().apply(42.9) == 42

    def test_bucket_stable_and_in_range(self):
        transform = BucketTransform(8)
        values = [transform.apply(f"key{i}") for i in range(100)]
        assert all(0 <= v < 8 for v in values)
        assert values == [BucketTransform(8).apply(f"key{i}") for i in range(100)]

    def test_bucket_spreads(self):
        transform = BucketTransform(4)
        assert len({transform.apply(i) for i in range(50)}) > 1

    def test_bucket_invalid(self):
        with pytest.raises(ValidationError):
            BucketTransform(0)


class TestPartitionSpec:
    def test_unpartitioned(self):
        spec = PartitionSpec.unpartitioned()
        assert not spec.is_partitioned
        assert spec.partition_path(()) == ""

    def test_single_field(self):
        spec = PartitionSpec.of(PartitionField("ship_date", MonthTransform()))
        assert spec.is_partitioned
        assert spec.partition_path((2,)) == "ship_date_month=2"

    def test_multi_field(self):
        spec = PartitionSpec.of(
            PartitionField("d", MonthTransform()),
            PartitionField("k", BucketTransform(4)),
        )
        path = spec.partition_path((1, 3))
        assert path.startswith("d_month=1/")
        assert path.endswith("=3")
        with pytest.raises(ValidationError):
            spec.partition_path((1,))

    def test_partition_path(self):
        spec = PartitionSpec.of(PartitionField("d", MonthTransform(), name="month"))
        assert spec.partition_path((7,)) == "month=7"

    def test_partition_path_default_name(self):
        spec = PartitionSpec.of(PartitionField("d", MonthTransform()))
        assert spec.partition_path((7,)) == "d_month=7"

    def test_partition_path_arity_mismatch(self):
        spec = PartitionSpec.of(PartitionField("d", MonthTransform()))
        with pytest.raises(ValidationError):
            spec.partition_path((1, 2))
