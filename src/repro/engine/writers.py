"""Writer profiles: how jobs fragment their output into files.

The paper's §2 traces small-file proliferation to how writers are
configured: bulk inserts can be well sized, but engine configuration, degree
of parallelism and memory constraints often are not, and incremental /
CDC-style writers emit many tiny files.  Each profile here maps "a job wrote
``total_bytes``" to a concrete list of file sizes:

* :class:`WellTunedWriter` — the centrally managed ingestion pipeline:
  files at the target size (±jitter);
* :class:`MisconfiguredShuffleWriter` — a Spark job whose (AQE-chosen)
  shuffle partition count is far too high for the data volume, yielding
  `num_partitions` small, skewed files;
* :class:`TrickleWriter` — incremental/CDC appends: file sizes follow a
  log-normal around a small mean, independent of the write's total volume.

Profiles are deterministic given the caller's RNG, keeping whole-workload
replays reproducible (NFR2).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ValidationError
from repro.units import DEFAULT_TARGET_FILE_SIZE, MiB


class WriterProfile(abc.ABC):
    """Strategy mapping a write volume to individual file sizes."""

    @abc.abstractmethod
    def split(self, total_bytes: int, rng: np.random.Generator) -> list[int]:
        """File sizes (positive ints summing to ``total_bytes``)."""

    @staticmethod
    def _normalize(weights: np.ndarray, total_bytes: int) -> list[int]:
        """Scale positive weights into integer sizes summing to the total."""
        weights = np.maximum(weights, 1e-9)
        raw = weights / weights.sum() * total_bytes
        sizes = np.floor(raw).astype(np.int64)
        shortfall = int(total_bytes - sizes.sum())
        # Distribute the rounding shortfall one byte at a time to the largest.
        if shortfall > 0:
            order = np.argsort(-raw)
            for i in range(shortfall):
                sizes[order[i % len(order)]] += 1
        return [int(s) for s in sizes if s > 0]


class WellTunedWriter(WriterProfile):
    """Emits files at the target size with small jitter.

    Args:
        target_file_size: desired file size (512 MiB default).
        jitter: relative standard deviation of the per-file size.
    """

    def __init__(
        self, target_file_size: int = DEFAULT_TARGET_FILE_SIZE, jitter: float = 0.08
    ) -> None:
        if target_file_size <= 0:
            raise ValidationError("target_file_size must be positive")
        if not 0 <= jitter < 1:
            raise ValidationError(f"jitter must be in [0, 1), got {jitter}")
        self.target_file_size = target_file_size
        self.jitter = jitter

    def split(self, total_bytes: int, rng: np.random.Generator) -> list[int]:
        if total_bytes <= 0:
            return []
        count = max(1, round(total_bytes / self.target_file_size))
        weights = rng.normal(1.0, self.jitter, size=count)
        return self._normalize(weights, total_bytes)


class MisconfiguredShuffleWriter(WriterProfile):
    """Emits one (skewed) file per shuffle partition, however small.

    Args:
        num_partitions: shuffle partition count the job (or AQE) picked.
        skew_sigma: sigma of the log-normal skew across partitions.
    """

    def __init__(self, num_partitions: int = 200, skew_sigma: float = 0.6) -> None:
        if num_partitions <= 0:
            raise ValidationError("num_partitions must be positive")
        if skew_sigma < 0:
            raise ValidationError("skew_sigma must be >= 0")
        self.num_partitions = num_partitions
        self.skew_sigma = skew_sigma

    def split(self, total_bytes: int, rng: np.random.Generator) -> list[int]:
        if total_bytes <= 0:
            return []
        count = min(self.num_partitions, max(1, total_bytes))
        weights = rng.lognormal(0.0, self.skew_sigma, size=count)
        return self._normalize(weights, total_bytes)


#: Log-normal sigma of a :class:`TrickleWriter`'s individual file sizes.
TRICKLE_SIZE_SIGMA = 0.5


class TrickleWriter(WriterProfile):
    """Emits small files of roughly ``mean_file_size`` regardless of volume.

    Args:
        mean_file_size: mean emitted file size (default 8 MiB — CDC-scale).
        max_files: safety cap on files per write.
    """

    def __init__(self, mean_file_size: int = 8 * MiB, max_files: int = 10_000) -> None:
        if mean_file_size <= 0:
            raise ValidationError("mean_file_size must be positive")
        if max_files <= 0:
            raise ValidationError("max_files must be positive")
        self.mean_file_size = mean_file_size
        self.max_files = max_files

    def split(self, total_bytes: int, rng: np.random.Generator) -> list[int]:
        if total_bytes <= 0:
            return []
        count = min(self.max_files, max(1, round(total_bytes / self.mean_file_size)))
        # Log-normal with mean 1 after correction, preserving the byte total.
        mu = -0.5 * TRICKLE_SIZE_SIGMA**2
        weights = rng.lognormal(mu, TRICKLE_SIZE_SIGMA, size=count)
        return self._normalize(weights, total_bytes)
