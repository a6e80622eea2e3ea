"""Tests for table transactions: append, overwrite, row-delta, rewrite."""

from __future__ import annotations

import pytest

from repro.errors import QuotaExceededError, ValidationError
from repro.lst import FileContent
from repro.units import MiB

from tests.conftest import fragment_table


class TestAppend:
    def test_append_creates_snapshot(self, table):
        txn = table.new_append()
        txn.add_file(10 * MiB, partition=(0,))
        txn.add_file(20 * MiB, partition=(1,))
        snapshot = txn.commit()
        assert snapshot.operation == "append"
        assert snapshot.data_file_count == 2
        assert table.version == 1
        assert table.data_file_count == 2
        assert table.total_data_bytes == 30 * MiB

    def test_append_accumulates(self, table):
        fragment_table(table, partitions=[(0,)], files_per_partition=3)
        fragment_table(table, partitions=[(1,)], files_per_partition=2)
        assert table.data_file_count == 5
        assert table.version == 2
        assert [s.sequence_number for s in table.snapshots()] == [1, 2]

    def test_files_created_in_storage(self, table, fs):
        fragment_table(table, partitions=[(0,)], files_per_partition=4)
        data_files = [
            info
            for info in fs.namenode.files_under(table.location)
            if info.path.startswith(f"{table.location}/data/")
        ]
        assert len(data_files) == 4

    def test_partition_paths_in_file_layout(self, table):
        fragment_table(table, partitions=[(3,)], files_per_partition=1)
        (data_file,) = table.live_files()
        assert "event_date_month=3" in data_file.path

    def test_default_record_count(self, table):
        txn = table.new_append()
        txn.add_file(1280, partition=(0,))
        txn.commit()
        (data_file,) = table.live_files()
        assert data_file.record_count == 10  # 1280 / 128-byte rows

    def test_negative_size_rejected(self, table):
        txn = table.new_append()
        with pytest.raises(ValidationError):
            txn.add_file(-1, partition=(0,))

    def test_negative_record_count_leaves_no_orphan_file(self, table, fs):
        """A negative record count is rejected when staged: a commit that
        reached it would already have created the files before it."""
        stored, next_id = fs.namenode.file_count, table._next_file_id
        txn = table.new_append()
        txn.add_file(1 * MiB, partition=(0,))
        with pytest.raises(ValidationError):
            txn.add_file(1 * MiB, partition=(0,), record_count=-5)
            txn.commit()
        assert fs.namenode.file_count == stored
        assert table.version == 0
        assert table._next_file_id == next_id

    def test_negative_delete_record_count_rejected(self, fragmented_table):
        references = fragmented_table.current_snapshot().files_in_partitions([(0,)])[:1]
        txn = fragmented_table.new_row_delta()
        with pytest.raises(ValidationError):
            txn.add_deletes(100, references, record_count=-1)
        with pytest.raises(ValidationError):
            txn.add_deletes(-1, references)

    def test_transaction_single_use(self, table):
        txn = table.new_append()
        txn.add_file(1, partition=(0,))
        txn.commit()
        with pytest.raises(ValidationError):
            txn.commit()
        with pytest.raises(ValidationError):
            txn.add_file(1, partition=(0,))

    def test_abort_discards(self, table):
        txn = table.new_append()
        txn.add_file(1, partition=(0,))
        txn.abort()
        assert table.version == 0
        assert table.data_file_count == 0
        with pytest.raises(ValidationError):
            txn.commit()

    def test_quota_overflow_creates_nothing(self, table, fs):
        """A commit that would overflow a quota fails before its first
        create: no file, directory, quota charge, create RPC or file id."""
        fragment_table(table, partitions=[(0,)], files_per_partition=1)
        head = table.current_snapshot()
        fs.set_quota("/data", 10**6)
        used, _ = fs.quota_usage("/data")
        # Room for two files in (0,), the new (1,) directory and one file
        # in it, but the commit needs 5 files, 1 directory and 3 metadata
        # files.
        limit = used + 4
        fs.set_quota("/data", limit)
        creates = fs.telemetry.counter("storage.rpc.create")
        before = {info.path for info in fs.namenode.files_under("/")}
        directories = fs.namenode.directory_count
        txn = table.new_append()
        for partition in [(0,), (0,), (1,), (1,), (0,)]:
            txn.add_file(1 * MiB, partition=partition)
        with pytest.raises(QuotaExceededError) as raised:
            txn.commit()
        error = raised.value
        assert (error.directory, error.used, error.limit) == ("/data", used, limit)
        assert {info.path for info in fs.namenode.files_under("/")} == before
        assert fs.namenode.directory_count == directories
        assert fs.quota_usage("/data") == (used, limit)
        assert fs.telemetry.counter("storage.rpc.create") == creates
        assert table._next_file_id == 2
        assert table.current_snapshot() is head
        assert table.version == 1


class TestOverwrite:
    def test_overwrite_replaces_files(self, fragmented_table):
        table = fragmented_table
        victims = [f for f in table.live_files() if f.partition == (0,)][:3]
        txn = table.new_overwrite()
        for victim in victims:
            txn.delete_file(victim)
        txn.add_file(64 * MiB, partition=(0,))
        snapshot = txn.commit()
        assert snapshot.operation == "overwrite"
        assert table.data_file_count == 20 - 3 + 1
        live_ids = {f.file_id for f in table.live_files()}
        assert not any(v.file_id in live_ids for v in victims)


class TestRowDelta:
    def test_row_delta_adds_delete_file(self, fragmented_table):
        table = fragmented_table
        targets = table.live_files()[:4]
        txn = table.new_row_delta()
        txn.add_deletes(1 * MiB, targets)
        snapshot = txn.commit()
        assert snapshot.delete_file_count == 1
        (delete_file,) = snapshot.delete_files
        assert delete_file.content is FileContent.POSITION_DELETES
        assert delete_file.references == frozenset(f.file_id for f in targets)

    def test_row_delta_requires_references(self, table):
        txn = table.new_row_delta()
        with pytest.raises(ValidationError):
            txn.add_deletes(1 * MiB, [])

    def test_scan_returns_relevant_deletes(self, fragmented_table):
        table = fragmented_table
        part0_files = [f for f in table.live_files() if f.partition == (0,)]
        txn = table.new_row_delta()
        txn.add_deletes(1 * MiB, part0_files[:2])
        txn.commit()
        plan0 = table.scan(partitions=[(0,)])
        plan1 = table.scan(partitions=[(1,)])
        assert len(plan0.delete_files) == 1
        assert len(plan1.delete_files) == 0


class TestRewrite:
    def test_rewrite_replaces_sources(self, fragmented_table):
        table = fragmented_table
        sources = [f for f in table.live_files() if f.partition == (0,)]
        total = sum(f.size_bytes for f in sources)
        txn = table.new_rewrite()
        txn.rewrite(sources, [total])
        snapshot = txn.commit()
        assert snapshot.operation == "replace"
        assert table.data_file_count == 11  # 10 in partition 1 + 1 merged
        merged = [f for f in table.live_files() if f.partition == (0,)]
        assert len(merged) == 1
        assert merged[0].size_bytes == total

    def test_rewrite_preserves_record_counts(self, fragmented_table):
        table = fragmented_table
        sources = [f for f in table.live_files() if f.partition == (0,)]
        records = sum(f.record_count for f in sources)
        total = sum(f.size_bytes for f in sources)
        txn = table.new_rewrite()
        txn.rewrite(sources, [total // 2, total - total // 2])
        txn.commit()
        merged = [f for f in table.live_files() if f.partition == (0,)]
        assert sum(f.record_count for f in merged) == records

    def test_rewrite_must_preserve_bytes(self, fragmented_table):
        table = fragmented_table
        sources = [f for f in table.live_files() if f.partition == (0,)]
        txn = table.new_rewrite()
        with pytest.raises(ValidationError):
            txn.rewrite(sources, [123])

    def test_rewrite_single_partition_only(self, fragmented_table):
        table = fragmented_table
        by_partition = {}
        for data_file in table.live_files():
            by_partition.setdefault(data_file.partition, []).append(data_file)
        mixed = by_partition[(0,)][:2] + by_partition[(1,)][:2]
        assert len({f.partition for f in mixed}) == 2
        txn = table.new_rewrite()
        with pytest.raises(ValidationError):
            txn.rewrite(mixed, [sum(f.size_bytes for f in mixed)])

    def test_rewrite_drops_covered_delete_files(self, fragmented_table):
        table = fragmented_table
        part0 = [f for f in table.live_files() if f.partition == (0,)]
        delta = table.new_row_delta()
        delta.add_deletes(1 * MiB, part0[:3])
        delta.commit()
        assert table.delete_file_count == 1
        txn = table.new_rewrite()
        txn.rewrite(part0, [sum(f.size_bytes for f in part0)])
        txn.commit()
        assert table.delete_file_count == 0

    def test_rejected_output_size_stages_nothing(self, table):
        """A group whose sizes fail validation leaves the transaction as it was."""
        txn = table.new_append()
        txn.add_file(10 * MiB, partition=(0,))
        txn.add_file(10 * MiB, partition=(0,))
        txn.commit()
        sources = list(table.live_files())
        txn = table.new_rewrite()
        with pytest.raises(ValidationError, match="positive"):
            txn.rewrite(sources, [30 * MiB, -10 * MiB])
        txn.commit()
        assert {f.path for f in table.live_files()} == {f.path for f in sources}
        assert table.total_data_bytes == 20 * MiB

    def test_empty_rewrite_group_rejected(self, table):
        txn = table.new_rewrite()
        with pytest.raises(ValidationError):
            txn.rewrite([], [])


class TestScan:
    def test_empty_table_scan(self, table):
        plan = table.scan()
        assert plan.file_count == 0
        assert plan.total_bytes == 0
        assert plan.manifests_read == 0

    def test_full_scan(self, fragmented_table):
        plan = fragmented_table.scan()
        assert plan.file_count == 20
        assert plan.total_bytes == 20 * 8 * MiB

    def test_partition_pruned_scan(self, fragmented_table):
        plan = fragmented_table.scan(partitions=[(0,)])
        assert plan.file_count == 10
        assert all(f.partition == (0,) for f in plan.files)

    def test_scan_deterministic_order(self, fragmented_table):
        first = fragmented_table.scan()
        second = fragmented_table.scan()
        assert [f.file_id for f in first.files] == [f.file_id for f in second.files]


class TestHistory:
    def test_history_records_operations(self, table):
        fragment_table(table, partitions=[(0,)], files_per_partition=2)
        sources = table.live_files()
        txn = table.new_rewrite()
        txn.rewrite(sources, [sum(f.size_bytes for f in sources)])
        txn.commit()
        ops = [op for _, _, op in table.history()]
        assert ops == ["append", "replace"]

    def test_snapshot_lookup(self, fragmented_table):
        snap = fragmented_table.current_snapshot()
        assert fragmented_table.snapshot(snap.snapshot_id) is snap
        with pytest.raises(ValidationError):
            fragmented_table.snapshot(9999)

    def test_partitions_sorted(self, table):
        fragment_table(table, partitions=[(5,), (1,), (3,)], files_per_partition=1)
        assert table.partitions() == [(1,), (3,), (5,)]
