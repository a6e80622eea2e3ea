"""Tests for the NameNode namespace and quota accounting."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import (
    FileExistsInStorageError,
    FileNotFoundInStorageError,
    QuotaExceededError,
    ValidationError,
)
from repro.storage.namenode import FileInfo, NameNode, normalize_path, parent_directories
from repro.units import MiB


class TestPathHelpers:
    def test_normalize(self):
        assert normalize_path("/a/b/") == "/a/b"
        assert normalize_path("/a//b") == "/a/b"
        assert normalize_path("/") == "/"

    def test_relative_rejected(self):
        with pytest.raises(ValidationError):
            normalize_path("a/b")
        with pytest.raises(ValidationError):
            normalize_path("")

    def test_parent_directories(self):
        assert parent_directories("/a/b/c.txt") == ["/a", "/a/b"]
        assert parent_directories("/top.txt") == []


class TestCreateLookupDelete:
    def test_create_and_lookup(self):
        node = NameNode()
        info = node.create("/data/db/t/f1.parquet", 10 * MiB, created_at=5.0)
        assert info.size_bytes == 10 * MiB
        assert info.created_at == 5.0
        assert node.lookup("/data/db/t/f1.parquet") == info

    def test_duplicate_create_rejected(self):
        node = NameNode()
        node.create("/a/f", 1, created_at=0.0)
        with pytest.raises(FileExistsInStorageError):
            node.create("/a/f", 1, created_at=0.0)

    def test_lookup_missing(self):
        with pytest.raises(FileNotFoundInStorageError):
            NameNode().lookup("/missing")

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            NameNode().create("/a/f", -1, created_at=0.0)

    def test_delete(self):
        node = NameNode()
        node.create("/a/f", 5, created_at=0.0)
        node.delete("/a/f")
        assert not node.exists("/a/f")
        with pytest.raises(FileNotFoundInStorageError):
            node.delete("/a/f")

    def test_exists_for_dirs(self):
        node = NameNode()
        node.create("/a/b/f", 1, created_at=0.0)
        assert node.exists("/a")
        assert node.exists("/a/b")
        assert not node.exists("/a/c")


class TestAccounting:
    def test_object_count_includes_directories(self):
        node = NameNode()
        node.create("/a/b/f1", 1, created_at=0.0)
        node.create("/a/b/f2", 1, created_at=0.0)
        assert node.file_count == 2
        assert node.directory_count == 2  # /a and /a/b

    def test_total_bytes_tracks_create_and_delete(self):
        node = NameNode()
        node.create("/a/f1", 100, created_at=0.0)
        node.create("/a/f2", 50, created_at=0.0)
        assert node.total_bytes == 150
        node.delete("/a/f1")
        assert node.total_bytes == 50

    def test_block_count(self):
        node = NameNode(block_size=128 * MiB)
        small = node.create("/a/small", 10 * MiB, created_at=0.0)
        large = node.create("/a/large", 300 * MiB, created_at=0.0)
        empty = node.create("/a/empty", 0, created_at=0.0)
        assert small.block_count == 1
        assert large.block_count == 3
        assert empty.block_count == 1
        assert sum(info.block_count for info in node.files_under("/")) == 5

    def test_files_under(self):
        node = NameNode()
        node.create("/data/db1/f", 1, created_at=0.0)
        node.create("/data/db2/f", 1, created_at=0.0)
        node.create("/other/f", 1, created_at=0.0)
        assert len(node.files_under("/data")) == 2
        assert len(node.files_under("/")) == 3
        assert node.count_under("/data/db1") == 1
        assert node.count_under("/data") == 2

    def test_files_under_does_not_match_prefix_strings(self):
        node = NameNode()
        node.create("/data1/f", 1, created_at=0.0)
        node.create("/data/f", 1, created_at=0.0)
        assert node.count_under("/data") == 1


class TestQuotas:
    def test_quota_enforced(self):
        node = NameNode()
        node.set_quota("/db", 3)
        node.create("/db/f1", 1, created_at=0.0)  # dir /db not counted (quota root)
        node.create("/db/f2", 1, created_at=0.0)
        node.create("/db/f3", 1, created_at=0.0)
        with pytest.raises(QuotaExceededError):
            node.create("/db/f4", 1, created_at=0.0)

    def test_quota_counts_new_directories(self):
        node = NameNode()
        node.set_quota("/db", 2)
        # One new dir + one file = 2 objects; fits exactly.
        node.create("/db/part/f1", 1, created_at=0.0)
        with pytest.raises(QuotaExceededError):
            node.create("/db/part/f2", 1, created_at=0.0)

    def test_quota_failure_leaves_namespace_unchanged(self):
        node = NameNode()
        node.set_quota("/db", 1)
        with pytest.raises(QuotaExceededError):
            node.create("/db/newdir/f", 1, created_at=0.0)
        assert not node.exists("/db/newdir")
        assert node.file_count + node.directory_count == 0

    def test_delete_releases_quota(self):
        node = NameNode()
        node.set_quota("/db", 1)
        node.create("/db/f1", 1, created_at=0.0)
        node.delete("/db/f1")
        node.create("/db/f2", 1, created_at=0.0)
        assert node.quota_usage("/db") == (1, 1)

    def test_quota_initialised_from_existing_contents(self):
        node = NameNode()
        node.create("/db/a/f1", 1, created_at=0.0)
        node.set_quota("/db", 10)
        used, limit = node.quota_usage("/db")
        assert used == 2  # dir /db/a plus file f1
        assert limit == 10

    def test_usage_requires_quota(self):
        with pytest.raises(ValidationError):
            NameNode().quota_usage("/nope")

    def test_invalid_limit(self):
        with pytest.raises(ValidationError):
            NameNode().set_quota("/db", 0)

    def test_unrelated_paths_not_charged(self):
        node = NameNode()
        node.set_quota("/db", 1)
        node.create("/elsewhere/f", 1, created_at=0.0)
        assert node.quota_usage("/db") == (0, 1)


class TestFileInfoValueSemantics:
    """``FileInfo`` is a named tuple with the frozen dataclass's semantics."""

    FIELDS = ("/data/f.parquet", 3 * MiB, 5.0, MiB)

    def test_hash_is_the_dataclass_hash(self):
        assert hash(FileInfo(*self.FIELDS)) == hash(self.FIELDS)

    def test_keyword_and_positional_construction_agree(self):
        keyword = FileInfo(
            path="/data/f.parquet", size_bytes=3 * MiB, created_at=5.0, block_size=MiB
        )
        assert keyword == FileInfo(*self.FIELDS)
        assert keyword.block_count == 3

    def test_equality(self):
        assert FileInfo(*self.FIELDS) == FileInfo(*self.FIELDS)
        assert FileInfo(*self.FIELDS) != FileInfo("/data/g.parquet", *self.FIELDS[1:])

    def test_pickle_round_trip(self):
        info = NameNode(block_size=MiB).create("/data/f.parquet", 3 * MiB, created_at=5.0)
        copy = pickle.loads(pickle.dumps(info, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy == info == FileInfo(*self.FIELDS)
        assert type(copy) is FileInfo
        assert copy.block_count == 3

    def test_block_count_floor(self):
        assert FileInfo("/e", 0, 0.0, MiB).block_count == 1
        assert FileInfo("/e", MiB + 1, 0.0, MiB).block_count == 2
