"""Deterministic cost guards for the storage substrate (counts, not timings).

A commit, a snapshot expiration, a file create and a read of a few
partitions of the head snapshot must each cost work proportional to what
changed (Δ) or to what was read, not to the size of the table.  These
tests count the calls that used to scale with the live file count, and
the per-directory storage work that used to scale with a commit's files.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.lst.maintenance as maintenance
import repro.storage.namenode as namenode_module
from repro.lst import DataFile, IcebergTable, TableIdentifier
from repro.storage import FileInfo, NameNode
from repro.units import MiB

BIG = 5_000
PARTITIONS = 50


@pytest.fixture
def big_table(fs, simple_schema, monthly_spec) -> IcebergTable:
    table = IcebergTable(TableIdentifier("db", "big"), simple_schema, spec=monthly_spec, fs=fs)
    txn = table.new_append()
    for i in range(BIG):
        txn.add_file(1 * MiB, partition=(i % PARTITIONS,))
    txn.commit()
    return table


def _forbid(*_args, **_kwargs):
    raise AssertionError("called on an O(Δ) path")


class TestCommitCost:
    def test_append_never_hashes_a_data_file(self, big_table, monkeypatch):
        monkeypatch.setattr(DataFile, "__hash__", _forbid)
        txn = big_table.new_append()
        for i in range(12):
            txn.add_file(1 * MiB, partition=(i % 3,))
        snapshot = txn.commit()
        assert snapshot.data_file_count == BIG + 12
        assert snapshot.ordered_files[-1].file_id == BIG + 12

    def test_append_builds_one_record_per_file_per_layer(self, big_table, monkeypatch):
        # Each appended file is one DataFile (table layer) and one FileInfo
        # (storage layer); the Iceberg commit adds three metadata files.
        built: Counter = Counter()
        for record in (DataFile, FileInfo):
            # Tuple records own their ``__new__``; patching an inherited
            # ``object.__new__`` would not be undone cleanly.
            assert issubclass(record, tuple) and "__new__" in vars(record)
            new = record.__new__

            def counting(cls, *args, _new=new, **kwargs):
                built[cls.__name__] += 1
                return _new(cls, *args, **kwargs)

            monkeypatch.setattr(record, "__new__", counting)
        txn = big_table.new_append()
        for i in range(12):
            txn.add_file(1 * MiB, partition=(i % 3,))
        txn.commit()
        assert built == {"DataFile": 12, "FileInfo": 15}

    def test_rewrite_never_hashes_a_data_file(self, big_table, monkeypatch):
        sources = big_table.current_snapshot().files_in_partitions([(7,)])
        monkeypatch.setattr(DataFile, "__hash__", _forbid)
        txn = big_table.new_rewrite()
        txn.rewrite(sources, [len(sources) * MiB])
        snapshot = txn.commit()
        assert snapshot.data_file_count == BIG - len(sources) + 1


class TestExpiryCost:
    def test_expiring_one_snapshot_checks_only_the_delta(self, big_table, monkeypatch):
        sources = big_table.current_snapshot().files_in_partitions([(3,)])
        txn = big_table.new_rewrite()
        txn.rewrite(sources, [len(sources) * MiB])
        txn.commit()

        calls: list[str] = []
        exists = NameNode.exists

        def counting_exists(self, path):
            calls.append(path)
            return exists(self, path)

        monkeypatch.setattr(NameNode, "exists", counting_exists)
        deleted = big_table.expire_snapshots(retain_last=1)
        # Δ = the rewrite's sources, plus the expired snapshot's manifest
        # list and metadata JSON and the one manifest the rewrite dropped.
        assert len(calls) == len(sources) + 3
        assert deleted == len(sources) + 3
        assert all(not big_table.fs.namenode.exists(f.path) for f in sources)
        assert big_table.data_file_count == BIG - len(sources) + 1

    def test_expiring_an_append_touches_no_data_file(self, big_table, monkeypatch):
        txn = big_table.new_append()
        txn.add_file(1 * MiB, partition=(0,))
        txn.commit()
        calls: list[str] = []
        exists = NameNode.exists
        monkeypatch.setattr(
            NameNode, "exists", lambda self, path: calls.append(path) or exists(self, path)
        )
        big_table.expire_snapshots(retain_last=1)
        assert len(calls) == 2  # the expired snapshot's exclusive metadata


class TestPartitionReadCost:
    def test_append_then_partition_read_touches_only_delta_and_partition(
        self, big_table, monkeypatch
    ):
        big_table.partitions()  # warm the head partition index
        txn = big_table.new_append()
        for i in range(12):
            txn.add_file(1 * MiB, partition=(i % 3,))
        touched: set[int] = set()
        getattribute = object.__getattribute__

        def counting(self, name):
            touched.add(id(self))
            return getattribute(self, name)

        monkeypatch.setattr(DataFile, "__getattribute__", counting)
        snapshot = txn.commit()
        partitions = big_table.partitions()
        files = big_table.scan([(7,)]).files
        monkeypatch.undo()
        delta = {id(f) for f in snapshot.ordered_files[-12:]}
        assert touched <= delta | {id(f) for f in files}
        assert len(partitions) == PARTITIONS
        assert len(files) == BIG // PARTITIONS

    def test_partition_rewrite_plans_only_that_partitions_files(
        self, big_table, monkeypatch
    ):
        big_table.partitions()  # warm the head partition index
        handed: list[list[DataFile]] = []
        plan_rewrite = maintenance.plan_rewrite

        def recording(files, *args, **kwargs):
            handed.append(list(files))
            return plan_rewrite(files, *args, **kwargs)

        monkeypatch.setattr(maintenance, "plan_rewrite", recording)
        plan = maintenance.plan_table_rewrite(big_table, partitions=[(7,)])
        (files,) = handed
        assert {f.partition for f in files} == {(7,)}
        assert len(files) == BIG // PARTITIONS
        assert plan.input_file_count == BIG // PARTITIONS


class TestCreateCost:
    def test_create_under_known_directory_skips_ancestor_walk(self, monkeypatch):
        namenode = NameNode()
        namenode.set_quota("/data", 100)
        namenode.create("/data/db/t/part-0.parquet", 1, created_at=0.0)
        monkeypatch.setattr(namenode_module, "parent_directories", _forbid)
        for i in range(1, 10):
            namenode.create(f"/data/db/t/part-{i}.parquet", 1, created_at=0.0)
        # /data/db, /data/db/t and 10 files are charged to the quota.
        assert namenode.quota_usage("/data") == (12, 100)

    def test_append_into_existing_partition_skips_ancestor_walk(
        self, big_table, monkeypatch
    ):
        monkeypatch.setattr(namenode_module, "parent_directories", _forbid)
        txn = big_table.new_append()
        for _ in range(12):
            txn.add_file(1 * MiB, partition=(0,))
        txn.commit()
        assert big_table.data_file_count == BIG + 12

    def test_quota_errors_unchanged_on_fast_path(self):
        namenode = NameNode()
        namenode.create("/q/a/f0", 1, created_at=0.0)
        namenode.set_quota("/q", 3)  # /q/a and /q/a/f0 already count
        namenode.create("/q/a/f1", 1, created_at=0.0)
        with pytest.raises(namenode_module.QuotaExceededError):
            namenode.create("/q/a/f2", 1, created_at=0.0)
        assert namenode.quota_usage("/q") == (3, 3)
        assert not namenode.exists("/q/a/f2")

    def test_set_quota_invalidates_memoised_quotas(self):
        namenode = NameNode()
        namenode.create("/q/a/f0", 1, created_at=0.0)
        namenode.create("/q/a/f1", 1, created_at=0.0)  # memoises /q/a
        namenode.set_quota("/q/a", 5)
        namenode.create("/q/a/f2", 1, created_at=0.0)
        assert namenode.quota_usage("/q/a") == (3, 5)


class TestBatchCost:
    @staticmethod
    def _storage_calls(table, monkeypatch, files: int) -> Counter:
        calls: Counter = Counter()
        enclosing = NameNode._enclosing_quotas
        normalize = namenode_module.normalize_path

        def counting_enclosing(self, parent):
            calls["_enclosing_quotas"] += 1
            return enclosing(self, parent)

        def counting_normalize(path):
            calls["normalize_path"] += 1
            return normalize(path)

        monkeypatch.setattr(NameNode, "_enclosing_quotas", counting_enclosing)
        monkeypatch.setattr(namenode_module, "normalize_path", counting_normalize)
        txn = table.new_append()
        for _ in range(files):
            txn.add_file(1 * MiB, partition=(0,))
        txn.commit()
        monkeypatch.undo()
        return calls

    def test_single_partition_append_does_directory_work_once_per_batch(
        self, big_table, monkeypatch
    ):
        one = self._storage_calls(big_table, monkeypatch, files=1)
        twelve = self._storage_calls(big_table, monkeypatch, files=12)
        assert twelve == one
        # One storage batch for the data files, one for the commit metadata.
        assert twelve["_enclosing_quotas"] <= 2
        assert twelve["normalize_path"] <= 2
        assert big_table.data_file_count == BIG + 13
