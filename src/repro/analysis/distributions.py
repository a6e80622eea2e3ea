"""File-size distributions and latency summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.units import MiB

#: Bucket upper edges (MiB) used for the Figure 1/2 style distributions.
PAPER_BUCKETS_MIB: tuple[int, ...] = (16, 32, 64, 128, 256, 512)


def size_histogram(sizes_bytes: list[int]) -> dict[str, int]:
    """Histogram of file sizes (bytes) over :data:`PAPER_BUCKETS_MIB`.

    Returns:
        Ordered mapping of bucket label to count: ``'<16MiB'``,
        ``'16-32MiB'``, …, ``'>=512MiB'`` (the overflow bucket).
    """
    edges = PAPER_BUCKETS_MIB
    labels = [f"<{edges[0]}MiB"]
    labels += [f"{lo}-{hi}MiB" for lo, hi in zip(edges, edges[1:])]
    labels.append(f">={edges[-1]}MiB")
    counts = dict.fromkeys(labels, 0)
    for size in sizes_bytes:
        size_mib = size / MiB
        for edge, label in zip(edges, labels):
            if size_mib < edge:
                counts[label] += 1
                break
        else:
            counts[labels[-1]] += 1
    return counts


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]).

    Raises:
        ValidationError: on empty input or out-of-range ``q``.
    """
    if not values:
        raise ValidationError("percentile of empty list")
    if not 0 <= q <= 100:
        raise ValidationError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class Candlestick:
    """Five-number summary, as plotted per hour in Figure 8."""

    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

    @property
    def spread(self) -> float:
        """Max − min: the execution-time variability the paper tracks."""
        return self.maximum - self.minimum


def candlestick(values: list[float]) -> Candlestick:
    """Five-number summary of ``values``.

    Raises:
        ValidationError: on empty input.
    """
    if not values:
        raise ValidationError("candlestick of empty list")
    return Candlestick(
        minimum=min(values),
        p25=percentile(values, 25),
        median=percentile(values, 50),
        p75=percentile(values, 75),
        maximum=max(values),
    )
