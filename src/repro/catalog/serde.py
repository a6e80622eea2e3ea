"""JSON-safe serialization of catalog metadata for trace capture/replay.

The Policy Lab's catalog traces (:mod:`repro.replay.catalog_trace`) must
round-trip everything a :class:`~repro.catalog.catalog.Catalog` needs to
recreate a table *exactly*: schema, partition spec (including transform
parameters), maintenance policy and the JSON-safe table properties.  These
helpers are the single serialization seam — the catalog publishes through
them and the replayer parses through them, so the two cannot drift.

Only plain lists/dicts of JSON scalars are produced, matching the
canonical-JSONL trace format.
"""

from __future__ import annotations

import dataclasses
import re

from repro.catalog.policies import TablePolicy
from repro.errors import ValidationError
from repro.lst.partitioning import (
    BucketTransform,
    DayTransform,
    IdentityTransform,
    MonthTransform,
    PartitionField,
    PartitionSpec,
    Transform,
)
from repro.lst.schema import Field, Schema

_BUCKET_RE = re.compile(r"^bucket\[(\d+)\]$")


def serialize_schema(schema: Schema) -> list[list[str]]:
    """``[[name, type, doc], ...]`` in schema order."""
    return [[f.name, f.type, f.doc] for f in schema.fields]


def parse_schema(columns: list) -> Schema:
    """Rebuild a :class:`~repro.lst.schema.Schema` from its serialized form."""
    return Schema.of(*(Field(name, type_, doc) for name, type_, doc in columns))


def serialize_spec(spec: PartitionSpec) -> list[list[str]]:
    """``[[source, transform_name, field_name], ...]`` in spec order."""
    return [[f.source, f.transform.name, f.name] for f in spec.fields]


def _parse_transform(name: str) -> Transform:
    if name == "identity":
        return IdentityTransform()
    if name == "month":
        return MonthTransform()
    if name == "day":
        return DayTransform()
    match = _BUCKET_RE.match(name)
    if match:
        return BucketTransform(int(match.group(1)))
    raise ValidationError(f"unknown partition transform {name!r} in trace")


def parse_spec(fields: list) -> PartitionSpec:
    """Rebuild a :class:`~repro.lst.partitioning.PartitionSpec`."""
    if not fields:
        return PartitionSpec.unpartitioned()
    return PartitionSpec.of(
        *(
            PartitionField(source, _parse_transform(transform), name)
            for source, transform, name in fields
        )
    )


def serialize_policy(policy: TablePolicy) -> dict:
    """A table policy as a plain field dict (its fields are all scalars)."""
    return {f.name: getattr(policy, f.name) for f in dataclasses.fields(policy)}


def parse_policy(payload: dict) -> TablePolicy:
    """Rebuild a :class:`~repro.catalog.policies.TablePolicy`."""
    return TablePolicy(**payload)


def serialize_properties(properties: dict) -> dict:
    """The JSON-safe subset of a table's properties (scalars only)."""
    return {
        key: value
        for key, value in properties.items()
        if isinstance(value, (str, int, float, bool))
    }


def serialize_cluster(cluster) -> dict:
    """A :class:`~repro.engine.cluster.Cluster`'s configuration fields."""
    return {
        "name": cluster.name,
        "executors": cluster.executors,
        "executor_memory_gb": cluster.executor_memory_gb,
        "cores_per_executor": cluster.cores_per_executor,
        "query_slots": cluster.query_slots,
        "contention_coeff": cluster.contention_coeff,
    }


def parse_cluster(payload: dict):
    """Rebuild a fresh (contention-free) cluster from its serialized form."""
    from repro.engine.cluster import Cluster

    return Cluster(**payload)
