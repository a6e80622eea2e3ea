"""Tests for data/delete file value objects and snapshot accessors."""

from __future__ import annotations

import pickle

import pytest

from repro.lst import DataFile, DeleteFile, FileContent
from repro.units import MiB

from tests.conftest import fragment_table


class TestDataFile:
    def test_fields(self):
        data_file = DataFile(
            file_id=1, path="/t/f.parquet", size_bytes=MiB, record_count=100,
            partition=(3,),
        )
        assert data_file.content is FileContent.DATA
        assert data_file.partition == (3,)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataFile(file_id=1, path="/f", size_bytes=-1, record_count=1)

    def test_negative_records_rejected(self):
        with pytest.raises(ValueError):
            DataFile(file_id=1, path="/f", size_bytes=1, record_count=-1)

    def test_hashable_value_object(self):
        a = DataFile(file_id=1, path="/f", size_bytes=1, record_count=1)
        b = DataFile(file_id=1, path="/f", size_bytes=1, record_count=1)
        assert a == b
        assert len({a, b}) == 1


class TestDeleteFile:
    def test_references(self):
        delete_file = DeleteFile(
            file_id=9, path="/d", size_bytes=100, record_count=10,
            references=frozenset({1, 2}),
        )
        assert delete_file.content is FileContent.POSITION_DELETES
        assert delete_file.references == {1, 2}

    def test_negative_size_and_records_rejected(self):
        with pytest.raises(ValueError):
            DeleteFile(9, "/d", -1, 1)
        with pytest.raises(ValueError):
            DeleteFile(9, "/d", 1, -1)


class TestRecordValueSemantics:
    """The records are tuples with the frozen dataclasses' value semantics."""

    DATA_FIELDS = (7, "/t/p=1/part-7.parquet", 4096, 32, (1,), FileContent.DATA)
    DELETE_FIELDS = (
        8, "/t/p=1/delete-8.parquet", 512, 4, (1,), frozenset({7}),
        FileContent.POSITION_DELETES,
    )

    def test_hash_is_the_dataclass_hash(self):
        # A frozen dataclass hashed the tuple of its fields, in order.
        assert hash(DataFile(*self.DATA_FIELDS)) == hash(self.DATA_FIELDS)
        assert hash(DeleteFile(*self.DELETE_FIELDS)) == hash(self.DELETE_FIELDS)

    def test_keyword_and_positional_construction_agree(self):
        positional = DataFile(*self.DATA_FIELDS)
        keyword = DataFile(
            file_id=7, path="/t/p=1/part-7.parquet", size_bytes=4096,
            record_count=32, partition=(1,),
        )
        assert positional == keyword
        assert type(keyword) is DataFile
        assert keyword.content is FileContent.DATA
        assert DeleteFile(*self.DELETE_FIELDS) == DeleteFile(
            file_id=8, path="/t/p=1/delete-8.parquet", size_bytes=512,
            record_count=4, partition=(1,), references=frozenset({7}),
        )

    def test_equality(self):
        a = DataFile(*self.DATA_FIELDS)
        assert a == DataFile(*self.DATA_FIELDS)
        assert a != DataFile(8, *self.DATA_FIELDS[1:])
        assert a != DataFile(*self.DATA_FIELDS[:3], 33, *self.DATA_FIELDS[4:])

    def test_data_file_never_equals_delete_file(self):
        data = DataFile(8, "/d", 512, 4, (1,))
        delete = DeleteFile(8, "/d", 512, 4, (1,))
        assert data != delete
        assert delete != data
        assert len({data, delete}) == 2

    def test_pickle_round_trip(self):
        # Process workers ship records between interpreters.
        for record in (DataFile(*self.DATA_FIELDS), DeleteFile(*self.DELETE_FIELDS)):
            copy = pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
            assert copy == record
            assert type(copy) is type(record)
            assert hash(copy) == hash(record)

    def test_immutable_and_without_instance_dict(self):
        record = DataFile(*self.DATA_FIELDS)
        with pytest.raises(AttributeError):
            record.size_bytes = 0
        assert not hasattr(record, "__dict__")


class TestSnapshotAccessors:
    def test_files_in_partition(self, fragmented_table):
        snapshot = fragmented_table.current_snapshot()
        part0 = snapshot.files_in_partitions([(0,)])
        assert len(part0) == 10
        assert all(f.partition == (0,) for f in part0)
        assert snapshot.files_in_partitions([(99,)]) == []

    def test_partitions_sorted(self, fragmented_table):
        assert fragmented_table.current_snapshot().partitions() == [(0,), (1,)]

    def test_totals(self, fragmented_table):
        snapshot = fragmented_table.current_snapshot()
        assert snapshot.data_file_count == 20
        assert snapshot.total_data_bytes == 20 * 8 * MiB
        assert snapshot.delete_file_count == 0
