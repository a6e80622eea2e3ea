"""Tests for data services (retention sweeps, health reporting)."""

from __future__ import annotations

from repro.catalog import DataServices, TablePolicy
from repro.units import MiB

from tests.conftest import fragment_table


def _rewrite_all(table):
    sources = table.live_files()
    by_partition = {}
    for f in sources:
        by_partition.setdefault(f.partition, []).append(f)
    txn = table.new_rewrite()
    for files in by_partition.values():
        txn.rewrite(files, [sum(f.size_bytes for f in files)])
    txn.commit()


class TestRetention:
    def test_retention_sweep_deletes_expired_files(self, catalog, simple_schema):
        catalog.create_database("db")
        policy = TablePolicy(snapshot_retention_s=0.0)
        table = catalog.create_table("db.t", simple_schema, policy=policy)
        fragment_table(table, partitions=[()], files_per_partition=6)
        _rewrite_all(table)
        catalog.clock.advance_by(10.0)
        report = DataServices(catalog).run_retention()
        assert report.tables_checked == 1
        assert report.snapshots_expired_tables == 1
        # 6 replaced data files + the expired snapshot's metadata (manifest
        # list + metadata JSON + its now-unreferenced manifest).
        assert report.files_deleted == 9

    def test_retention_respects_window(self, catalog, simple_schema):
        catalog.create_database("db")
        policy = TablePolicy(snapshot_retention_s=3600.0)
        table = catalog.create_table("db.t", simple_schema, policy=policy)
        fragment_table(table, partitions=[()], files_per_partition=4)
        _rewrite_all(table)
        catalog.clock.advance_by(10.0)  # still inside retention window
        report = DataServices(catalog).run_retention()
        assert report.files_deleted == 0


class TestHealthReporting:
    def test_out_of_policy_flags_fragmented_tables(self, catalog, simple_schema):
        catalog.create_database("db")
        fragmented = catalog.create_table("db.bad", simple_schema)
        fragment_table(fragmented, partitions=[()], files_per_partition=10, file_size=MiB)
        healthy = catalog.create_table("db.good", simple_schema)
        fragment_table(healthy, partitions=[()], files_per_partition=2, file_size=600 * MiB)
        services = DataServices(catalog)
        assert services.out_of_policy_tables() == ["db.bad"]

    def test_empty_tables_not_flagged(self, catalog, simple_schema):
        catalog.create_database("db")
        catalog.create_table("db.empty", simple_schema)
        assert DataServices(catalog).out_of_policy_tables() == []
