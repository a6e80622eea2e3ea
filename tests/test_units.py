"""Tests for unit constants and formatting helpers."""

from __future__ import annotations

import pytest

from repro.units import (
    DAY,
    DEFAULT_TARGET_FILE_SIZE,
    GiB,
    HOUR,
    KiB,
    MiB,
    MINUTE,
    MONTH,
    SMALL_FILE_THRESHOLD,
    TiB,
    WEEK,
    format_bytes,
)


class TestConstants:
    def test_byte_units_scale(self):
        assert KiB == 1024
        assert MiB == 1024 * KiB
        assert GiB == 1024 * MiB
        assert TiB == 1024 * GiB

    def test_paper_defaults(self):
        assert DEFAULT_TARGET_FILE_SIZE == 512 * MiB
        assert SMALL_FILE_THRESHOLD == 128 * MiB
        assert SMALL_FILE_THRESHOLD < DEFAULT_TARGET_FILE_SIZE

    def test_time_units_scale(self):
        assert MINUTE == 60
        assert HOUR == 60 * MINUTE
        assert DAY == 24 * HOUR
        assert WEEK == 7 * DAY
        assert MONTH == 30 * DAY


class TestFormatBytes:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (KiB, "1.0 KiB"),
            (512 * MiB, "512.0 MiB"),
            (3 * GiB, "3.0 GiB"),
            (2 * TiB, "2.0 TiB"),
        ],
    )
    def test_values(self, value, expected):
        assert format_bytes(value) == expected

    def test_negative(self):
        assert format_bytes(-2 * MiB) == "-2.0 MiB"

    def test_fractional(self):
        assert format_bytes(1.5 * MiB) == "1.5 MiB"
