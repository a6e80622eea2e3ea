"""Tests for writer profiles (file-fragmentation models)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    MisconfiguredShuffleWriter,
    TrickleWriter,
    WellTunedWriter,
)
from repro.errors import ValidationError
from repro.simulation import derive_rng
from repro.units import GiB, MiB


@pytest.fixture
def rng():
    return derive_rng(0, "writer-tests")


class TestWellTunedWriter:
    def test_files_near_target(self, rng):
        writer = WellTunedWriter(target_file_size=512 * MiB, jitter=0.05)
        sizes = writer.split(4 * GiB, rng)
        assert len(sizes) == 8
        for size in sizes:
            assert abs(size - 512 * MiB) / (512 * MiB) < 0.3

    def test_preserves_total(self, rng):
        writer = WellTunedWriter()
        total = 3 * GiB + 12345
        assert sum(writer.split(total, rng)) == total

    def test_small_write_single_file(self, rng):
        writer = WellTunedWriter()
        sizes = writer.split(10 * MiB, rng)
        assert sizes == [10 * MiB]

    def test_zero_bytes(self, rng):
        assert WellTunedWriter().split(0, rng) == []

    def test_validation(self):
        with pytest.raises(ValidationError):
            WellTunedWriter(target_file_size=0)
        with pytest.raises(ValidationError):
            WellTunedWriter(jitter=1.5)


class TestMisconfiguredShuffleWriter:
    def test_one_file_per_partition(self, rng):
        writer = MisconfiguredShuffleWriter(num_partitions=200)
        sizes = writer.split(1 * GiB, rng)
        assert len(sizes) == 200
        assert sum(sizes) == 1 * GiB

    def test_produces_small_files(self, rng):
        """The §2 cause: partition count far too high for the volume."""
        writer = MisconfiguredShuffleWriter(num_partitions=100)
        sizes = writer.split(200 * MiB, rng)
        assert all(size < 128 * MiB for size in sizes)

    def test_skew(self, rng):
        writer = MisconfiguredShuffleWriter(num_partitions=100, skew_sigma=1.0)
        sizes = writer.split(1 * GiB, rng)
        assert max(sizes) > 3 * min(sizes)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MisconfiguredShuffleWriter(num_partitions=0)
        with pytest.raises(ValidationError):
            MisconfiguredShuffleWriter(skew_sigma=-1)


class TestTrickleWriter:
    def test_file_count_scales_with_volume(self, rng):
        writer = TrickleWriter(mean_file_size=8 * MiB)
        small = writer.split(80 * MiB, rng)
        large = writer.split(800 * MiB, rng)
        assert len(small) == 10
        assert len(large) == 100

    def test_max_files_cap(self, rng):
        writer = TrickleWriter(mean_file_size=1, max_files=50)
        assert len(writer.split(10**6, rng)) == 50

    def test_preserves_total(self, rng):
        writer = TrickleWriter()
        assert sum(writer.split(123_456_789, rng)) == 123_456_789

    def test_validation(self):
        with pytest.raises(ValidationError):
            TrickleWriter(mean_file_size=0)
        with pytest.raises(ValidationError):
            TrickleWriter(max_files=0)


class TestDeterminism:
    def test_same_rng_same_split(self):
        writer = MisconfiguredShuffleWriter(num_partitions=64)
        a = writer.split(1 * GiB, derive_rng(5, "w"))
        b = writer.split(1 * GiB, derive_rng(5, "w"))
        assert a == b
