"""Partition specs and transforms.

A :class:`PartitionSpec` maps row values to a partition tuple via a list of
:class:`PartitionField`, each applying a transform to a source column —
the same model as Iceberg's hidden partitioning.  The paper's synthetic
workload partitions ``lineitem`` by ``shipdate`` at *monthly* granularity
(§6) while ``orders`` stays unpartitioned; :class:`MonthTransform` and the
empty spec cover those two cases, and :class:`BucketTransform` /
:class:`DayTransform` round out the common Iceberg transforms.

Dates are represented as integer *day ordinals* (days since an arbitrary
epoch); a simulated month is 30 days, consistent with ``repro.units.MONTH``.
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field

from repro.errors import ValidationError

#: Days per simulated month, shared with the time constants in repro.units.
DAYS_PER_MONTH = 30


class Transform(abc.ABC):
    """Maps a source column value to a partition value."""

    name: str = "transform"

    @abc.abstractmethod
    def apply(self, value: object) -> object:
        """Partition value for ``value``."""

    def __repr__(self) -> str:
        return self.name


class IdentityTransform(Transform):
    """Partition directly by the column value."""

    name = "identity"

    def apply(self, value: object) -> object:
        return value


class MonthTransform(Transform):
    """Partition a day-ordinal date column by 30-day month index."""

    name = "month"

    def apply(self, value: object) -> int:
        return int(value) // DAYS_PER_MONTH


class DayTransform(Transform):
    """Partition a day-ordinal date column by day."""

    name = "day"

    def apply(self, value: object) -> int:
        return int(value)


class BucketTransform(Transform):
    """Hash-partition into ``num_buckets`` buckets.

    Uses CRC-32 of the value's string form so bucketing is stable across
    processes (``hash()`` is salted per process and would break NFR2).
    """

    def __init__(self, num_buckets: int) -> None:
        if num_buckets <= 0:
            raise ValidationError(f"bucket count must be positive, got {num_buckets}")
        self.num_buckets = num_buckets
        self.name = f"bucket[{num_buckets}]"

    def apply(self, value: object) -> int:
        return zlib.crc32(str(value).encode("utf-8")) % self.num_buckets


@dataclass(frozen=True)
class PartitionField:
    """One component of a partition spec."""

    source: str
    transform: Transform
    name: str = ""

    def resolved_name(self) -> str:
        """Field name in the partition tuple (defaults to source_transform)."""
        return self.name or f"{self.source}_{self.transform.name}"


@dataclass(frozen=True)
class PartitionSpec:
    """An ordered list of partition fields; empty means unpartitioned."""

    fields: tuple[PartitionField, ...] = field(default=())

    @classmethod
    def unpartitioned(cls) -> "PartitionSpec":
        """The empty spec."""
        return cls(())

    @classmethod
    def of(cls, *fields: PartitionField) -> "PartitionSpec":
        """Build a spec from partition fields."""
        return cls(tuple(fields))

    @property
    def is_partitioned(self) -> bool:
        """Whether the spec has any partition fields."""
        return bool(self.fields)

    def partition_path(self, partition: tuple) -> str:
        """Directory fragment for a partition tuple, e.g. ``'shipdate_month=42'``."""
        if not self.fields:
            return ""
        if len(partition) != len(self.fields):
            raise ValidationError(
                f"partition tuple {partition!r} does not match spec arity "
                f"{len(self.fields)}"
            )
        return "/".join(
            f"{part_field.resolved_name()}={value}"
            for part_field, value in zip(self.fields, partition)
        )
