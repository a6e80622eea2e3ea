"""TPC-H-like schema and data generator.

The §6 synthetic experiments generate CAB databases whose schemas are
TPC-H's, populated with ``dbgen``-style volumes, with ``lineitem``
partitioned by ``shipdate`` at monthly granularity and every other table —
notably ``orders``, the other update target — unpartitioned.

Row widths are approximate on-disk (columnar, compressed) bytes per row;
volumes scale linearly with the scale factor like ``dbgen``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.policies import TablePolicy
from repro.engine.session import EngineSession
from repro.engine.writers import WriterProfile
from repro.errors import ValidationError
from repro.lst.base import BaseTable
from repro.lst.partitioning import MonthTransform, PartitionField, PartitionSpec
from repro.lst.schema import Field, Schema


@dataclass(frozen=True)
class TpchTableSpec:
    """Volume/shape definition for one TPC-H table."""

    name: str
    schema: Schema
    rows_per_sf: int
    bytes_per_row: int
    partition_column: str | None = None

    def bytes_at(self, scale_factor: float) -> int:
        """On-disk bytes at a given scale factor."""
        return int(self.rows_per_sf * scale_factor * self.bytes_per_row)


def _schema(*columns: tuple[str, str]) -> Schema:
    return Schema.of(*(Field(name, type_) for name, type_ in columns))


#: The eight TPC-H tables with dbgen cardinalities (rows at SF 1).
TPCH_TABLES: tuple[TpchTableSpec, ...] = (
    TpchTableSpec(
        "lineitem",
        _schema(
            ("l_orderkey", "long"),
            ("l_partkey", "long"),
            ("l_suppkey", "long"),
            ("l_quantity", "decimal"),
            ("l_extendedprice", "decimal"),
            ("l_discount", "decimal"),
            ("l_shipdate", "date"),
            ("l_comment", "string"),
        ),
        rows_per_sf=6_000_000,
        bytes_per_row=120,
        partition_column="l_shipdate",
    ),
    TpchTableSpec(
        "orders",
        _schema(
            ("o_orderkey", "long"),
            ("o_custkey", "long"),
            ("o_orderstatus", "string"),
            ("o_totalprice", "decimal"),
            ("o_orderdate", "date"),
            ("o_comment", "string"),
        ),
        rows_per_sf=1_500_000,
        bytes_per_row=100,
    ),
    TpchTableSpec(
        "partsupp",
        _schema(
            ("ps_partkey", "long"),
            ("ps_suppkey", "long"),
            ("ps_availqty", "int"),
            ("ps_supplycost", "decimal"),
        ),
        rows_per_sf=800_000,
        bytes_per_row=140,
    ),
    TpchTableSpec(
        "part",
        _schema(
            ("p_partkey", "long"),
            ("p_name", "string"),
            ("p_brand", "string"),
            ("p_retailprice", "decimal"),
        ),
        rows_per_sf=200_000,
        bytes_per_row=150,
    ),
    TpchTableSpec(
        "customer",
        _schema(
            ("c_custkey", "long"),
            ("c_name", "string"),
            ("c_nationkey", "int"),
            ("c_acctbal", "decimal"),
        ),
        rows_per_sf=150_000,
        bytes_per_row=160,
    ),
    TpchTableSpec(
        "supplier",
        _schema(
            ("s_suppkey", "long"),
            ("s_name", "string"),
            ("s_nationkey", "int"),
            ("s_acctbal", "decimal"),
        ),
        rows_per_sf=10_000,
        bytes_per_row=150,
    ),
    TpchTableSpec(
        "nation",
        _schema(("n_nationkey", "int"), ("n_name", "string"), ("n_regionkey", "int")),
        rows_per_sf=25,
        bytes_per_row=120,
    ),
    TpchTableSpec(
        "region",
        _schema(("r_regionkey", "int"), ("r_name", "string")),
        rows_per_sf=5,
        bytes_per_row=120,
    ),
)


def create_tpch_database(
    catalog: Catalog,
    database: str,
    scale_factor: float,
    session: EngineSession,
    loader: WriterProfile,
    months: int = 12,
    policy: TablePolicy | None = None,
    quota_objects: int | None = None,
    table_format: str = "iceberg",
    partition_lineitem: bool = True,
) -> dict[str, BaseTable]:
    """Create and load a TPC-H-schema database.

    ``lineitem`` is partitioned by ship-date month and its volume spread
    uniformly across ``months`` partitions; all other tables are loaded
    unpartitioned in one bulk write.  The *loader* profile controls how
    fragmented the initial load is — the paper's baseline uses a
    mis-configured load that seeds the small-file problem (§6.1 notes the
    high initial file count).

    Args:
        catalog: target catalog; the database must not exist yet.
        database: database name.
        scale_factor: TPC-H scale factor (1.0 ≈ 1 GB of modelled data).
        session: engine session performing the load writes.
        loader: writer profile shaping the initial files.
        months: number of monthly ``lineitem`` partitions.
        policy: table policy for every created table.
        quota_objects: optional namespace quota for the database.
        table_format: LST format for all tables.
        partition_lineitem: set False to build the fully unpartitioned
            variant (the §6.3 TPC-H workload, where compaction must rewrite
            whole tables).

    Returns:
        Mapping of table name to the created table.
    """
    if months <= 0:
        raise ValidationError("months must be positive")
    catalog.create_database(database, quota_objects=quota_objects)
    tables: dict[str, BaseTable] = {}
    for spec in TPCH_TABLES:
        partition_spec = None
        if spec.partition_column is not None and partition_lineitem:
            partition_spec = PartitionSpec.of(
                PartitionField(spec.partition_column, MonthTransform())
            )
        table = catalog.create_table(
            f"{database}.{spec.name}",
            spec.schema,
            spec=partition_spec,
            table_format=table_format,
            policy=policy,
        )
        tables[spec.name] = table

        total = spec.bytes_at(scale_factor)
        if total <= 0:
            continue
        if partition_spec is not None:
            per_month = total // months
            if per_month > 0:
                for month in range(months):
                    session.write(table, per_month, loader, partitions=(month,), label="load")
        else:
            session.write(table, total, loader, label="load")
    return tables
