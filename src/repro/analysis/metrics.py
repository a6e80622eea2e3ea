"""Series transforms used by the production charts (Figures 10–11)."""

from __future__ import annotations

from repro.errors import ValidationError


def normalize_series(values: list[float]) -> list[float]:
    """Min-max normalise into [0, 1] (constant series → all zeros).

    The paper's production figures plot normalised values so different
    units (file counts, TBHr, deployment size) share one y-axis.
    """
    if not values:
        return []
    low = min(values)
    high = max(values)
    span = high - low
    if span == 0:
        return [0.0] * len(values)
    return [(v - low) / span for v in values]


def moving_average(values: list[float], window: int) -> list[float]:
    """Trailing moving average (window clipped at the series start).

    Figure 11a plots *smoothed* normalised metrics; this is that smoothing.

    Raises:
        ValidationError: for non-positive windows.
    """
    if window <= 0:
        raise ValidationError(f"window must be positive, got {window}")
    out = []
    acc = 0.0
    for i, value in enumerate(values):
        acc += value
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def write_amplification(rewritten_bytes: float, ingested_bytes: float) -> float:
    """Bytes rewritten by compaction per byte the workload ingested.

    The classic LSM maintenance-cost metric: a policy that compacts the
    same data repeatedly amplifies writes without improving file counts.
    Zero ingest yields 0 (nothing was written, nothing to amplify against).

    Raises:
        ValidationError: for negative inputs.
    """
    if rewritten_bytes < 0 or ingested_bytes < 0:
        raise ValidationError("byte totals must be >= 0")
    if ingested_bytes == 0:
        return 0.0
    return rewritten_bytes / ingested_bytes


def task_failure_rate(failures: int, tasks: int) -> float:
    """Failed act-phase tasks over all executed tasks (0 when none ran).

    Raises:
        ValidationError: when ``failures`` exceeds ``tasks`` or either is
            negative.
    """
    if failures < 0 or tasks < 0 or failures > tasks:
        raise ValidationError(f"invalid failure/tasks pair ({failures}/{tasks})")
    if tasks == 0:
        return 0.0
    return failures / tasks


def reduction_efficiency(files_reduced: float, gbhr: float) -> float:
    """Files removed per GBHr of compute spent (0 when nothing was spent).

    The benefit-per-cost scalar the what-if runner ranks policy variants
    by default; higher is better.

    Raises:
        ValidationError: for negative compute.
    """
    if gbhr < 0:
        raise ValidationError("gbhr must be >= 0")
    if gbhr == 0:
        return 0.0
    return files_reduced / gbhr
