"""Tests for the filesystem façade and its RPC accounting."""

from __future__ import annotations

from repro.storage import SimulatedFileSystem
from repro.units import MiB, SMALL_FILE_THRESHOLD


class TestRpcCounters:
    def test_create_counts(self, fs):
        fs.create_file("/a/f", 1)
        fs.create_file("/a/g", 1)
        assert fs.telemetry.counter("storage.rpc.create") == 2

    def test_bulk_open_recording(self, fs):
        fs.record_opens(250)
        fs.record_opens(0)
        assert fs.telemetry.counter("storage.rpc.open") == 250

    def test_delete_and_stat_count(self, fs):
        fs.create_file("/a/f", 1)
        fs.exists("/a/f")
        fs.delete_file("/a/f")
        assert fs.telemetry.counter("storage.rpc.stat") == 1
        assert fs.telemetry.counter("storage.rpc.delete") == 1


class TestCreationTime:
    def test_files_stamped_with_clock(self, fs, clock):
        clock.advance_to(123.0)
        info = fs.create_file("/a/f", 1)
        assert info.created_at == 123.0


class TestHealthMetrics:
    def test_small_file_count_and_fraction(self, fs):
        fs.create_file("/t/small1", 10 * MiB)
        fs.create_file("/t/small2", 100 * MiB)
        fs.create_file("/t/big", 200 * MiB)
        assert fs.small_file_count("/t") == 2
        assert fs.small_file_fraction("/t") == 2 / 3

    def test_small_threshold_boundary(self, fs):
        fs.create_file("/t/exact", SMALL_FILE_THRESHOLD)
        assert fs.small_file_count("/t") == 0  # strictly-below semantics

    def test_empty_prefix_fraction(self, fs):
        assert fs.small_file_fraction("/nothing") == 0.0

    def test_file_count_and_bytes(self, fs):
        fs.create_file("/x/a", 5)
        fs.create_file("/x/b", 7)
        assert fs.file_count("/x") == 2
        assert fs.total_bytes() == 12


class TestSizeHistogram:
    def test_buckets(self, fs):
        fs.create_file("/t/a", 1 * MiB)
        fs.create_file("/t/b", 20 * MiB)
        fs.create_file("/t/c", 600 * MiB)
        hist = fs.size_histogram([16, 32, 512], prefix="/t")
        assert hist == {"<16MiB": 1, "16-32MiB": 1, "32-512MiB": 0, ">=512MiB": 1}

    def test_bucket_order_preserved(self, fs):
        fs.create_file("/t/a", 1)
        hist = fs.size_histogram([16, 32, 64])
        assert list(hist) == ["<16MiB", "16-32MiB", "32-64MiB", ">=64MiB"]


class TestQuotaHelpers:
    def test_quota_utilization(self):
        fs = SimulatedFileSystem()
        fs.set_quota("/db", 10)
        fs.create_file("/db/f1", 1)
        fs.create_file("/db/f2", 1)
        assert fs.quota_usage("/db") == (2, 10)
        assert fs.quota_utilization("/db") == 0.2
