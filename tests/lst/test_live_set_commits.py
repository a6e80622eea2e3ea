"""Commits only remove files that are live in the committing table.

A rewrite or overwrite staged with files the table does not hold (another
table's files, or files already gone) must fail, and never evict a live
file that happens to share an id or invent bytes.
"""

from __future__ import annotations

import pytest

from repro.errors import CommitConflictError, ValidationError
from repro.lst import IcebergTable, TableIdentifier
from repro.units import MiB


def _single_file_table(fs, schema, name: str, size: int) -> IcebergTable:
    table = IcebergTable(TableIdentifier("db", name), schema, fs=fs)
    txn = table.new_append()
    txn.add_file(size)
    txn.commit()
    return table


@pytest.fixture
def pair(fs, simple_schema):
    """Two unpartitioned tables whose only files both have id 1."""
    mine = _single_file_table(fs, simple_schema, "mine", 4 * MiB)
    other = _single_file_table(fs, simple_schema, "other", 8 * MiB)
    return mine, other


class TestRemovingFilesOfAnotherTable:
    def test_rewrite_of_foreign_files_is_rejected(self, pair):
        mine, other = pair
        txn = mine.new_rewrite()
        txn.rewrite(other.live_files(), [8 * MiB])
        with pytest.raises(ValidationError, match="not live"):
            txn.commit()
        assert mine.version == 1
        assert mine.total_data_bytes == 4 * MiB
        assert [f.file_id for f in mine.live_files()] == [1]

    def test_overwrite_of_foreign_file_is_rejected(self, pair):
        mine, other = pair
        txn = mine.new_overwrite()
        txn.delete_file(other.live_files()[0])
        txn.add_file(1 * MiB)
        with pytest.raises(ValidationError):
            txn.commit()
        assert mine.data_file_count == 1
        assert mine.total_data_bytes == 4 * MiB

    def test_rewrite_of_already_removed_file_is_rejected(self, table):
        append = table.new_append()
        append.add_file(4 * MiB, partition=(0,))
        append.add_file(4 * MiB, partition=(0,))
        append.commit()
        sources = table.live_files()
        first = table.new_rewrite()
        first.rewrite(sources, [8 * MiB])
        first.commit()
        # Started after the first rewrite, so no commit is concurrent.
        second = table.new_rewrite()
        second.rewrite(sources, [8 * MiB])
        with pytest.raises(ValidationError):
            second.commit()
        assert table.total_data_bytes == 8 * MiB

    def test_duplicate_rewrite_source_is_rejected(self, table):
        append = table.new_append()
        append.add_file(4 * MiB, partition=(0,))
        append.commit()
        (only,) = table.live_files()
        txn = table.new_rewrite()
        txn.rewrite([only, only], [8 * MiB])
        with pytest.raises(ValidationError, match="more than once"):
            txn.commit()
        assert table.total_data_bytes == 4 * MiB

    def test_concurrent_case_stays_a_conflict(self, pair):
        mine, other = pair
        txn = mine.new_rewrite()
        txn.rewrite(other.live_files(), [8 * MiB])
        concurrent = mine.new_append()
        concurrent.add_file(1 * MiB)
        concurrent.commit()
        with pytest.raises(CommitConflictError):
            txn.commit()
        assert mine.total_data_bytes == 5 * MiB


class TestRemovalSummary:
    def test_removed_count_is_actual_removals(self, table):
        append = table.new_append()
        for _ in range(3):
            append.add_file(4 * MiB, partition=(0,))
        append.commit()
        txn = table.new_rewrite()
        txn.rewrite(table.live_files(), [12 * MiB])
        snapshot = txn.commit()
        assert snapshot.summary["removed-data-files"] == 3
        assert snapshot.summary["total-data-files"] == 1
        assert [f.file_id for f in snapshot.removed] == [1, 2, 3]


class TestPartitionIndex:
    def test_multi_partition_scan_is_an_id_ordered_union(self, table):
        for partition in [(0,), (1,), (2,), (0,), (1,)]:
            append = table.new_append()
            append.add_file(4 * MiB, partition=partition)
            append.commit()
        plan = table.scan(partitions=[(1,), (0,), (1,)])
        assert [f.file_id for f in plan.files] == [1, 2, 4, 5]
        snapshot = table.current_snapshot()
        assert [f.file_id for f in snapshot.files_in_partitions([(0,)])] == [1, 4]
        assert snapshot.files_in_partitions([(3,)]) == []
