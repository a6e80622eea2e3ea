"""Failure-atomic commits under a namespace quota.

A commit that a quota rejects must leave the namespace as it found it: no
data, delete or metadata file, no new directory, no quota charge, no file
id spent and no new table version.  Orphans would inflate the quota that
the paper's §7 weight ``w1 = 0.5 × (1 + UsedQuota/TotalQuota)`` reads, and
nothing reclaims them.
"""

from __future__ import annotations

import pytest

from repro.catalog import Catalog
from repro.errors import QuotaExceededError
from repro.lst import Field, MonthTransform, PartitionField, PartitionSpec, Schema
from repro.lst.maintenance import execute_rewrite, plan_table_rewrite
from repro.units import MiB

FORMATS = ("iceberg", "delta", "hudi")


def _table(table_format: str = "iceberg"):
    """``db.t``: a monthly-partitioned table holding four committed 10 MiB files."""
    catalog = Catalog()
    catalog.create_database("db")
    schema = Schema.of(Field("id", "long"), Field("event_date", "date"))
    monthly = PartitionSpec.of(PartitionField("event_date", MonthTransform()))
    table = catalog.create_table("db.t", schema, spec=monthly, table_format=table_format)
    txn = table.new_append()
    for _ in range(4):
        txn.add_file(10 * MiB, partition=(0,))
    txn.commit()
    return catalog, table


def _set_room(catalog, table, room: int) -> None:
    """Put a quota on the table's location with ``room`` objects to spare."""
    catalog.fs.set_quota(table.location, 10**6)
    used, _ = catalog.fs.quota_usage(table.location)
    catalog.fs.set_quota(table.location, used + room)


def _state(catalog, table) -> tuple:
    namenode = catalog.fs.namenode
    return (
        namenode.file_count,
        namenode.directory_count,
        namenode.total_bytes,
        catalog.fs.quota_usage(table.location),
        table._next_file_id,
        table.version,
        table.current_snapshot(),
    )


def _six_file_append(table):
    txn = table.new_append()
    for _ in range(6):
        txn.add_file(1 * MiB, partition=(1,))  # a new partition directory
    return txn


class TestRejectedCommitLeavesNoOrphans:
    def test_over_quota_append_creates_nothing(self):
        catalog, table = _table()
        # 6 data files + the new partition directory + 3 metadata files
        # need 10 objects; the quota takes 4.
        _set_room(catalog, table, 4)
        before = _state(catalog, table)
        assert before[0] == 7 and before[3][0] == 10
        creates = catalog.fs.telemetry.counter("storage.rpc.create")
        with pytest.raises(QuotaExceededError) as raised:
            _six_file_append(table).commit()
        assert raised.value.directory == table.location
        assert _state(catalog, table) == before
        assert catalog.fs.telemetry.counter("storage.rpc.create") == creates

    def test_over_quota_rewrite_creates_nothing(self):
        catalog, table = _table()
        # The 40 MiB output plus 3 metadata files need 4 objects.
        _set_room(catalog, table, 1)
        before = _state(catalog, table)
        with pytest.raises(QuotaExceededError):
            execute_rewrite(table, plan_table_rewrite(table))
        assert _state(catalog, table) == before
        assert [f.size_bytes for f in table.live_files()] == [10 * MiB] * 4

    def test_a_commit_that_fits_exactly_still_lands(self):
        catalog, table = _table()
        _set_room(catalog, table, 10)
        _six_file_append(table).commit()
        assert catalog.fs.quota_usage(table.location)[0] == catalog.fs.quota_usage(
            table.location
        )[1]
        assert table.data_file_count == 10

    def test_ids_continue_after_a_rejected_commit(self):
        catalog, table = _table()
        _set_room(catalog, table, 1)
        with pytest.raises(QuotaExceededError):
            _six_file_append(table).commit()
        _set_room(catalog, table, 100)
        snapshot = _six_file_append(table).commit()
        assert sorted(snapshot.files)[-6:] == list(range(5, 11))

    @pytest.mark.parametrize("table_format", FORMATS)
    def test_room_check_counts_what_each_commit_creates(self, table_format):
        """Over twelve commits (Delta checkpoints at version 10), room for
        one object less than a commit creates rejects it with nothing
        created, and exact room lets it land and fill the quota."""
        catalog, table = _table(table_format)
        twin_catalog, twin = _table(table_format)
        twin_catalog.fs.set_quota(twin.location, 10**6)
        for _ in range(12):
            used, _ = twin_catalog.fs.quota_usage(twin.location)
            _six_file_append(twin).commit()
            need = twin_catalog.fs.quota_usage(twin.location)[0] - used
            _set_room(catalog, table, need - 1)
            before = _state(catalog, table)
            with pytest.raises(QuotaExceededError):
                _six_file_append(table).commit()
            assert _state(catalog, table) == before
            _set_room(catalog, table, need)
            _six_file_append(table).commit()
            used, limit = catalog.fs.quota_usage(table.location)
            assert used == limit

    def test_a_quota_inside_the_table_is_checked_too(self):
        """A quota set on a partition directory, below the table's
        location, rejects the commit before anything is created."""
        catalog, table = _table()
        _set_room(catalog, table, 100)
        partition_dir = f"{table.location}/data/event_date_month=0"
        catalog.fs.set_quota(partition_dir, 4 + 2)  # four files, room for two
        before = _state(catalog, table)
        txn = table.new_append()
        for _ in range(3):
            txn.add_file(1 * MiB, partition=(0,))
        with pytest.raises(QuotaExceededError) as raised:
            txn.commit()
        assert raised.value.directory == partition_dir
        assert _state(catalog, table) == before


@pytest.mark.parametrize("quota", (False, True))
def test_each_run_directory_is_computed_once(quota, monkeypatch):
    """The room check and the creates share one grouping of the staged
    files: a commit computes each run's directory exactly once, with or
    without a quota over the table."""
    catalog, table = _table()
    if quota:
        _set_room(catalog, table, 100)
    computed = []
    directory = type(table)._partition_directory

    def counting(self, partition):
        computed.append(partition)
        return directory(self, partition)

    monkeypatch.setattr(type(table), "_partition_directory", counting)
    txn = table.new_append()
    for partition in ((0,), (0,), (1,), (1,), (0,)):
        txn.add_file(1 * MiB, partition=partition)
    txn.commit()
    assert computed == [(0,), (1,), (0,)]  # one per run of the same partition
