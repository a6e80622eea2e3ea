"""Tests for the TPC-H-like schema and loader."""

from __future__ import annotations

import pytest

from repro.engine import MisconfiguredShuffleWriter, WellTunedWriter
from repro.errors import ValidationError
from repro.units import GiB, MiB
from repro.lst import TableIdentifier
from repro.workloads import TPCH_TABLES, create_tpch_database

SPECS = {spec.name: spec for spec in TPCH_TABLES}


class TestTableSpecs:
    def test_eight_tables(self):
        assert len(TPCH_TABLES) == 8
        names = {spec.name for spec in TPCH_TABLES}
        assert names == {
            "lineitem",
            "orders",
            "partsupp",
            "part",
            "customer",
            "supplier",
            "nation",
            "region",
        }

    def test_dbgen_cardinalities(self):
        assert SPECS["lineitem"].rows_per_sf == 6_000_000
        assert SPECS["orders"].rows_per_sf == 1_500_000
        assert SPECS["nation"].rows_per_sf == 25

    def test_lineitem_partitioned_by_shipdate(self):
        assert SPECS["lineitem"].partition_column == "l_shipdate"
        assert SPECS["orders"].partition_column is None

    def test_bytes_scale_linearly(self):
        spec = SPECS["lineitem"]
        assert spec.bytes_at(2.0) == 2 * spec.bytes_at(1.0)


class TestCreateDatabase:
    def test_creates_all_tables(self, catalog, session):
        tables = create_tpch_database(
            catalog, "tpch", 0.5, session, WellTunedWriter(), months=6
        )
        assert set(tables) == {spec.name for spec in TPCH_TABLES}
        assert TableIdentifier("tpch", "lineitem") in catalog.list_tables()

    def test_lineitem_monthly_partitions(self, catalog, session):
        tables = create_tpch_database(
            catalog, "tpch", 1.0, session, WellTunedWriter(), months=12
        )
        assert len(tables["lineitem"].partitions()) == 12
        assert tables["orders"].partitions() == [()]

    def test_unpartitioned_variant(self, catalog, session):
        tables = create_tpch_database(
            catalog,
            "tpch",
            1.0,
            session,
            WellTunedWriter(),
            partition_lineitem=False,
        )
        assert not tables["lineitem"].spec.is_partitioned

    def test_fragmented_loader_seeds_small_files(self, catalog, session):
        tables = create_tpch_database(
            catalog, "tpch", 1.0, session, MisconfiguredShuffleWriter(32), months=12
        )
        lineitem = tables["lineitem"]
        assert lineitem.small_file_count() == lineitem.data_file_count
        assert lineitem.data_file_count >= 12 * 32

    def test_volume_close_to_scale(self, catalog, session):
        tables = create_tpch_database(
            catalog, "tpch", 2.0, session, WellTunedWriter(), months=10
        )
        lineitem_bytes = tables["lineitem"].total_data_bytes
        expected = SPECS["lineitem"].bytes_at(2.0)
        assert abs(lineitem_bytes - expected) / expected < 0.05

    def test_quota_applied(self, catalog, session):
        create_tpch_database(
            catalog, "tpch", 0.5, session, WellTunedWriter(), quota_objects=100_000
        )
        assert catalog.quota_utilization("tpch") > 0

    def test_invalid_months(self, catalog, session):
        with pytest.raises(ValidationError):
            create_tpch_database(catalog, "t", 1.0, session, WellTunedWriter(), months=0)
