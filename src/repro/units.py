"""Shared unit constants and formatting helpers.

All byte quantities in the library are plain integers counted in bytes and
all simulated durations are floats counted in seconds.  These constants keep
call sites readable (``3 * HOUR``, ``512 * MiB``) and are the single source
of truth for the defaults the paper uses throughout its evaluation:

* the compaction *target file size* of 512 MB (§2, §6), and
* the *small file* threshold of 128 MB, the HDFS block size LinkedIn uses to
  report the fraction of small files (§2, Figure 2).
"""

from __future__ import annotations

# --- byte units ------------------------------------------------------------

KiB: int = 1024
MiB: int = 1024**2
GiB: int = 1024**3
TiB: int = 1024**4

#: Default compaction target file size used across the paper (512 MB).
DEFAULT_TARGET_FILE_SIZE: int = 512 * MiB

#: Files below this size count as "small" in storage-health metrics (128 MB).
SMALL_FILE_THRESHOLD: int = 128 * MiB

# --- time units (simulated seconds) -----------------------------------------

SECOND: float = 1.0
MINUTE: float = 60.0
HOUR: float = 3600.0
DAY: float = 24 * HOUR
WEEK: float = 7 * DAY
#: A simulation "month" is 30 days; production charts in §7 use months.
MONTH: float = 30 * DAY


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with a binary-unit suffix, e.g. ``'512.0 MiB'``.

    Negative values are rendered with a leading minus sign; values below one
    KiB are rendered as integers of bytes.
    """
    sign = "-" if num_bytes < 0 else ""
    value = abs(float(num_bytes))
    for unit, size in (("TiB", TiB), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if value >= size:
            return f"{sign}{value / size:.1f} {unit}"
    return f"{sign}{int(value)} B"
