"""Managed raw-event ingestion (Gobblin/FastIngest stand-in).

The paper's §2 describes LinkedIn's central pipeline: raw Kafka events are
written to HDFS every five minutes, incrementally compacted and
deduplicated into hourly partitions of ~512 MB files; daily partitions are
retained long-term while small checkpoint files expire after three days.
This module reproduces that write pattern so Figure 1's *raw ingestion*
distribution (files clustered at the target) can be generated next to the
*user-derived* distribution (trickle/mis-tuned writers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.session import EngineSession
from repro.engine.writers import WellTunedWriter
from repro.errors import ValidationError
from repro.lst.base import BaseTable
from repro.units import DEFAULT_TARGET_FILE_SIZE, HOUR, MINUTE

#: The micro-batch cadence of the §2 pipeline: raw events land every five
#: minutes.
MICRO_BATCH_INTERVAL_S = 5 * MINUTE


@dataclass
class IngestionStats:
    """What one simulated ingestion window produced."""

    hours: int
    micro_batches: int
    bytes_ingested: int
    hourly_files: int


class RawIngestionPipeline:
    """Five-minute micro-batches compacted into hourly target-size files.

    Args:
        table: destination table, partitioned by an hourly key (identity
            transform on an ``hour`` column) or unpartitioned.
        session: engine session used for writes.
        events_bytes_per_hour: raw volume arriving per hour.
        target_file_size: hourly-compaction output size (512 MiB default).
    """

    def __init__(
        self,
        table: BaseTable,
        session: EngineSession,
        events_bytes_per_hour: int,
        target_file_size: int = DEFAULT_TARGET_FILE_SIZE,
    ) -> None:
        if events_bytes_per_hour <= 0:
            raise ValidationError("events_bytes_per_hour must be positive")
        self.table = table
        self.session = session
        self.events_bytes_per_hour = events_bytes_per_hour
        self.target_file_size = target_file_size
        self._writer = WellTunedWriter(target_file_size, jitter=0.12)

    @property
    def batches_per_hour(self) -> int:
        """Micro-batches per hourly window."""
        return round(HOUR / MICRO_BATCH_INTERVAL_S)

    def ingest_hours(self, hours: int, rng: np.random.Generator) -> IngestionStats:
        """Simulate ``hours`` of ingestion.

        Each hour, micro-batches accumulate and are incrementally compacted
        into the hour's partition as target-sized files — we model the net
        effect by writing the hour's volume with a well-tuned profile into
        partition ``(hour_index,)`` (checkpoint files are transient and
        expired, so they do not appear in the final distribution).

        Returns:
            Aggregate :class:`IngestionStats` for the window.
        """
        if hours <= 0:
            raise ValidationError("hours must be positive")
        total_bytes = 0
        total_files = 0
        partitioned = self.table.spec.is_partitioned
        for hour in range(hours):
            volume = int(self.events_bytes_per_hour * rng.uniform(0.85, 1.15))
            partition = (hour,) if partitioned else None
            result = self.session.write(
                self.table, volume, self._writer, partitions=partition, label="ingest"
            )
            total_bytes += result.bytes_written
            total_files += result.files_created
        return IngestionStats(
            hours=hours,
            micro_batches=hours * self.batches_per_hour,
            bytes_ingested=total_bytes,
            hourly_files=total_files,
        )
