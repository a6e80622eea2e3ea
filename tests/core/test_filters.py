"""Tests for candidate filters."""

from __future__ import annotations

import pytest

from repro.core import (
    Candidate,
    CandidateKey,
    CandidateScope,
    CandidateStatistics,
    MinSmallFileCountFilter,
    MinTableAgeFilter,
    QuiescenceFilter,
)
from repro.core.filters import apply_filters
from repro.errors import ValidationError
from repro.units import HOUR, MiB

TARGET = 512 * MiB


def _candidate(sizes=(MiB, MiB), created_at=0.0, modified_at=0.0, name="t"):
    return Candidate(
        key=CandidateKey("db", name, CandidateScope.TABLE),
        statistics=CandidateStatistics.from_file_sizes(
            list(sizes),
            target_file_size=TARGET,
            created_at=created_at,
            last_modified_at=modified_at,
        ),
    )


class TestMinTableAge:
    def test_young_tables_dropped(self):
        """OpenHouse's recent-creation window (§4.1)."""
        age_filter = MinTableAgeFilter(HOUR)
        young = _candidate(created_at=1800.0)
        old = _candidate(created_at=0.0)
        assert age_filter.apply([young, old], now=3600.0) == [old]

    def test_boundary_inclusive(self):
        age_filter = MinTableAgeFilter(HOUR)
        exact = _candidate(created_at=0.0)
        assert age_filter.keep(exact, now=HOUR)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MinTableAgeFilter(-1)


class TestQuiescence:
    def test_hot_tables_dropped(self):
        quiet = QuiescenceFilter(600.0)
        hot = _candidate(modified_at=3500.0)
        cold = _candidate(modified_at=0.0)
        assert quiet.apply([hot, cold], now=3600.0) == [cold]

    def test_validation(self):
        with pytest.raises(ValidationError):
            QuiescenceFilter(-1)


class TestCountAndSizeFilters:
    def test_min_small_file_count(self):
        small_filter = MinSmallFileCountFilter(2)
        mostly_large = _candidate(sizes=[TARGET, TARGET, MiB])
        assert not small_filter.keep(mostly_large, now=0)
        assert small_filter.keep(_candidate(sizes=[MiB, MiB]), now=0)


class TestApplyFilters:
    def test_sequential_application(self):
        candidates = [
            _candidate(sizes=[MiB], name="a"),
            _candidate(sizes=[MiB] * 5, name="b", created_at=100.0),
            _candidate(sizes=[MiB] * 5, name="c"),
        ]
        filters = [MinSmallFileCountFilter(2), MinTableAgeFilter(50.0)]
        kept = apply_filters(filters, candidates, now=60.0)
        assert [c.key.table for c in kept] == ["c"]

    def test_empty_filter_list(self):
        candidates = [_candidate()]
        assert apply_filters([], candidates, now=0) == candidates

    def test_order_preserved(self):
        candidates = [_candidate(name=f"t{i}") for i in range(5)]
        kept = apply_filters([MinSmallFileCountFilter(1)], candidates, now=0)
        assert [c.key.table for c in kept] == [f"t{i}" for i in range(5)]
