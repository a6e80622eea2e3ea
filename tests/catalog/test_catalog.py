"""Tests for the catalog (databases, tables, quotas, policies)."""

from __future__ import annotations

import pytest

from repro.catalog import Catalog, TablePolicy
from repro.core.candidates import CandidateKey, CandidateScope
from repro.core.connectors import LstConnector
from repro.errors import (
    NoSuchTableError,
    TableAlreadyExistsError,
    ValidationError,
)
from repro.lst import DeltaTable, IcebergTable, TableIdentifier
from repro.lst.maintenance import plan_table_rewrite
from repro.units import MiB

from tests.conftest import fragment_table


class TestDatabases:
    def test_create_and_list(self, catalog):
        catalog.create_database("b")
        catalog.create_database("a")
        assert catalog.list_databases() == ["a", "b"]

    def test_duplicate_rejected(self, catalog):
        catalog.create_database("x")
        with pytest.raises(ValidationError):
            catalog.create_database("x")

    def test_unknown_lookup(self, catalog):
        with pytest.raises(ValidationError):
            catalog.database("ghost")

    def test_quota_utilization_unlimited(self, catalog):
        catalog.create_database("free")
        assert catalog.quota_utilization("free") == 0.0

    def test_quota_utilization_tracks_files(self, catalog, simple_schema):
        catalog.create_database("ten", quota_objects=1000)
        table = catalog.create_table("ten.t", simple_schema)
        fragment_table(table, partitions=[()], files_per_partition=5)
        assert catalog.quota_utilization("ten") > 0.0


class TestTables:
    def test_create_and_load(self, catalog, simple_schema):
        catalog.create_database("db")
        created = catalog.create_table("db.t", simple_schema)
        loaded = catalog.load_table("db.t")
        assert created is loaded
        assert isinstance(created, IcebergTable)
        assert created.location == "/data/db/t"

    def test_create_with_identifier_object(self, catalog, simple_schema):
        catalog.create_database("db")
        ident = TableIdentifier("db", "t2")
        table = catalog.create_table(ident, simple_schema)
        assert str(table.identifier) == "db.t2"

    def test_delta_format(self, catalog, simple_schema):
        catalog.create_database("db")
        table = catalog.create_table("db.d", simple_schema, table_format="delta")
        assert isinstance(table, DeltaTable)

    def test_unknown_format_rejected(self, catalog, simple_schema):
        catalog.create_database("db")
        with pytest.raises(ValidationError):
            catalog.create_table("db.t", simple_schema, table_format="paimon")

    def test_duplicate_table_rejected(self, catalog, simple_schema):
        catalog.create_database("db")
        catalog.create_table("db.t", simple_schema)
        with pytest.raises(TableAlreadyExistsError):
            catalog.create_table("db.t", simple_schema)

    def test_missing_database_rejected(self, catalog, simple_schema):
        with pytest.raises(ValidationError):
            catalog.create_table("nodb.t", simple_schema)

    def test_load_missing(self, catalog):
        catalog.create_database("db")
        with pytest.raises(NoSuchTableError):
            catalog.load_table("db.ghost")

    def test_table_exists(self, catalog, simple_schema):
        catalog.create_database("db")
        assert TableIdentifier("db", "t") not in catalog.list_tables()
        catalog.create_table("db.t", simple_schema)
        assert TableIdentifier("db", "t") in catalog.list_tables()

    def test_list_tables(self, catalog, simple_schema):
        catalog.create_database("db1")
        catalog.create_database("db2")
        catalog.create_table("db1.b", simple_schema)
        catalog.create_table("db1.a", simple_schema)
        catalog.create_table("db2.c", simple_schema)
        all_tables = catalog.list_tables()
        assert [str(t) for t in all_tables] == ["db1.a", "db1.b", "db2.c"]
        assert [str(t) for t in catalog.list_tables("db2")] == ["db2.c"]

    def test_drop_table_removes_files(self, catalog, simple_schema):
        catalog.create_database("db")
        table = catalog.create_table("db.t", simple_schema)
        fragment_table(table, partitions=[()], files_per_partition=3)
        assert catalog.fs.file_count(table.location) > 0
        catalog.drop_table("db.t")
        assert catalog.list_tables() == []
        assert catalog.fs.file_count(table.location) == 0

    def test_drop_missing(self, catalog):
        catalog.create_database("db")
        with pytest.raises(NoSuchTableError):
            catalog.drop_table("db.ghost")

    def test_tables_share_catalog_clock_and_fs(self, catalog, simple_schema):
        catalog.create_database("db")
        table = catalog.create_table("db.t", simple_schema)
        assert table.fs is catalog.fs
        assert table.clock is catalog.clock


class TestPolicies:
    def test_default_policy(self, catalog, simple_schema):
        catalog.create_database("db")
        catalog.create_table("db.t", simple_schema)
        policy = catalog.policy("db.t")
        assert policy.target_file_size == 512 * MiB
        assert policy.compaction_enabled

    def test_policy_flows_into_table_properties(self, catalog, simple_schema):
        catalog.create_database("db")
        policy = TablePolicy(target_file_size=64 * MiB, snapshot_retention_s=0.0)
        table = catalog.create_table("db.t", simple_schema, policy=policy)
        assert table.target_file_size == 64 * MiB
        assert table.snapshot_retention_s == 0.0

    def test_observe_and_rewrite_plan_agree_on_policy_target(self, catalog, simple_schema):
        catalog.create_database("db")
        policy = TablePolicy(target_file_size=256 * MiB)
        table = catalog.create_table("db.t", simple_schema, policy=policy)
        txn = table.new_append()
        for size in (100, 100, 300, 300):
            txn.add_file(size * MiB)
        txn.commit()
        key = CandidateKey(database="db", table="t", scope=CandidateScope.TABLE)
        (candidate,) = LstConnector(catalog).observe([key])
        plan = plan_table_rewrite(table)
        assert candidate.statistics.small_file_count == 2
        assert plan.input_file_count == 2
        assert plan.output_file_count == 1

    def test_policy_for_missing_table(self, catalog):
        catalog.create_database("db")
        with pytest.raises(NoSuchTableError):
            catalog.policy("db.ghost")

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            TablePolicy(target_file_size=0)
        with pytest.raises(ValidationError):
            TablePolicy(snapshot_retention_s=-1)
        with pytest.raises(ValidationError):
            TablePolicy(min_age_before_compaction_s=-1)
