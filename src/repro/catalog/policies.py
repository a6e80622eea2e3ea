"""Per-table maintenance policies.

OpenHouse tables carry declarative policies that data services reconcile
against observed state.  AutoComp reads these to parameterise candidate
generation and filtering — e.g. the paper's OpenHouse deployment skips
tables created within a preset time window (§4.1), which is
``min_age_before_compaction_s`` here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.units import DAY, DEFAULT_TARGET_FILE_SIZE, HOUR


@dataclass(frozen=True)
class TablePolicy:
    """Declarative maintenance policy for one table.

    Attributes:
        target_file_size: compaction output target in bytes (512 MiB default,
            matching the paper's deployments).
        snapshot_retention_s: how long superseded snapshots (and their files)
            are retained before physical cleanup; 0 allows immediate cleanup.
        min_age_before_compaction_s: tables younger than this are filtered
            out of AutoComp's candidate pool — fresh or intermediate tables
            do not affect the long-term health of the system (§4.1).
        compaction_enabled: master switch; governed tables can opt out.
    """

    target_file_size: int = DEFAULT_TARGET_FILE_SIZE
    snapshot_retention_s: float = 3 * DAY
    min_age_before_compaction_s: float = 1 * HOUR
    compaction_enabled: bool = True

    def __post_init__(self) -> None:
        if self.target_file_size <= 0:
            raise ValidationError(
                f"target_file_size must be positive, got {self.target_file_size}"
            )
        if self.snapshot_retention_s < 0:
            raise ValidationError("snapshot_retention_s must be >= 0")
        if self.min_age_before_compaction_s < 0:
            raise ValidationError("min_age_before_compaction_s must be >= 0")
