"""Candidate filters (§4.1).

Filters refine the exhaustively generated candidate pool at two points in
the workflow — after the observe phase (statistics-based) and after the
orient phase (trait-based).  They encode platform-specific knowledge such
as "don't compact tables created in the last hour" (OpenHouse's rule, to
avoid spending budget on intermediate tables) or "skip candidates with
recent write activity" (to dodge conflicts).
"""

from __future__ import annotations

import abc

from repro.core.candidates import Candidate
from repro.errors import ValidationError


class CandidateFilter(abc.ABC):
    """Predicate deciding whether a candidate stays in the pool."""

    name: str = "filter"

    @abc.abstractmethod
    def keep(self, candidate: Candidate, now: float) -> bool:
        """True to keep the candidate, False to drop it."""

    def apply(self, candidates: list[Candidate], now: float) -> list[Candidate]:
        """Filter a candidate list, preserving order."""
        return [c for c in candidates if self.keep(c, now)]


def apply_filters(
    filters: list[CandidateFilter], candidates: list[Candidate], now: float
) -> list[Candidate]:
    """Apply filters in sequence (order matters only for telemetry)."""
    for candidate_filter in filters:
        candidates = candidate_filter.apply(candidates, now)
    return candidates


class MinTableAgeFilter(CandidateFilter):
    """Drop candidates whose table was created within ``min_age_s``.

    This is OpenHouse's recent-creation window: freshly created (often
    intermediate) tables do not affect the long-term health of the system,
    so compaction budget is not spent on them.
    """

    name = "min_table_age"

    def __init__(self, min_age_s: float) -> None:
        if min_age_s < 0:
            raise ValidationError("min_age_s must be >= 0")
        self.min_age_s = min_age_s

    def keep(self, candidate: Candidate, now: float) -> bool:
        stats = candidate.statistics
        return stats is not None and now - stats.created_at >= self.min_age_s


class QuiescenceFilter(CandidateFilter):
    """Drop candidates written to within the last ``quiet_s`` seconds.

    Compacting a hot candidate risks write-write conflicts (§2's caveat);
    waiting for a quiet window sidesteps most of them.
    """

    name = "quiescence"

    def __init__(self, quiet_s: float) -> None:
        if quiet_s < 0:
            raise ValidationError("quiet_s must be >= 0")
        self.quiet_s = quiet_s

    def keep(self, candidate: Candidate, now: float) -> bool:
        stats = candidate.statistics
        return stats is not None and now - stats.last_modified_at >= self.quiet_s


class MinSmallFileCountFilter(CandidateFilter):
    """Drop candidates with fewer than ``min_small_files`` small files.

    The cheapest useful benefit filter: a candidate with one small file has
    nothing to merge.
    """

    name = "min_small_file_count"

    def __init__(self, min_small_files: int = 2) -> None:
        if min_small_files < 0:
            raise ValidationError("min_small_files must be >= 0")
        self.min_small_files = min_small_files

    def keep(self, candidate: Candidate, now: float) -> bool:
        stats = candidate.statistics
        return stats is not None and stats.small_file_count >= self.min_small_files
