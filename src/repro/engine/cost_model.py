"""Analytic cost model for query and rewrite execution.

The model decomposes query latency the way the small-file literature (and
the paper's §1–§2) explains the problem:

``latency = planning + (task startup + effective scan + MoR merge) / parallelism``

* *planning* grows with metadata: manifests to read plus a per-file entry
  cost — trickle writes inflate this;
* *task startup* is a fixed cost per file (each file becomes at least one
  task), which dominates when files are small;
* *effective scan* charges each file at least ``small_read_floor`` bytes,
  modelling the lost encoding/compression efficiency of tiny columnar
  files;
* *MoR merge* charges for reading delete files and applying them to every
  referenced data file.

All coefficients are explicit dataclass fields so experiments (and users)
can calibrate them; defaults are tuned so the paper's headline shapes hold
(e.g. a ~1.5× TPC-DS slowdown after 3% churn in Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.lst.base import ScanPlan
from repro.units import GiB, MiB


@dataclass(frozen=True)
class CostModel:
    """Latency/throughput coefficients for a simulated engine."""

    #: Fixed query-planning latency (driver startup, catalog round trips).
    base_planning_s: float = 0.5
    #: Seconds to read one metadata manifest during planning.
    manifest_read_s: float = 0.02
    #: Planning cost per live file entry (statistics pruning, split planning).
    plan_per_file_s: float = 0.0004
    #: Task startup + file open overhead per scanned file (seconds).
    task_overhead_s: float = 0.12
    #: Sustained scan throughput per core (bytes/second).
    scan_bytes_per_core_s: float = 64 * MiB
    #: Every file is charged at least this many bytes (columnar inefficiency).
    small_read_floor: int = 16 * MiB
    #: Multiplier on delete-file bytes (read + sort + apply).
    delete_merge_multiplier: float = 3.0
    #: Extra seconds per data file affected by at least one delete file.
    delete_apply_per_file_s: float = 0.05
    #: Write throughput per core (bytes/second) for inserts.
    write_bytes_per_core_s: float = 32 * MiB
    #: Fixed commit latency per write transaction.
    commit_s: float = 1.0
    #: Rewrite (compaction) throughput per executor (bytes/second).
    rewrite_bytes_per_executor_s: float = 48 * MiB
    #: Fixed startup cost of one compaction job (driver, planning, commit).
    compaction_startup_s: float = 30.0

    def __post_init__(self) -> None:
        for name in (
            "scan_bytes_per_core_s",
            "write_bytes_per_core_s",
            "rewrite_bytes_per_executor_s",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")

    # --- reads --------------------------------------------------------------

    def planning_latency(self, plan: ScanPlan) -> float:
        """Driver-side planning time for a scan."""
        return (
            self.base_planning_s
            + plan.manifests_read * self.manifest_read_s
            + plan.file_count * self.plan_per_file_s
        )

    def effective_scan_bytes(self, plan: ScanPlan) -> int:
        """Bytes charged for scanning, after the small-file floor."""
        return sum(max(f.size_bytes, self.small_read_floor) for f in plan.files)

    def merge_on_read_seconds(self, plan: ScanPlan, parallelism: int) -> float:
        """Extra executor time to apply MoR delete files, already parallel."""
        if not plan.delete_files:
            return 0.0
        delete_bytes = plan.delete_bytes * self.delete_merge_multiplier
        referenced = set()
        for delete_file in plan.delete_files:
            referenced.update(delete_file.references)
        scanned_ids = {f.file_id for f in plan.files}
        affected = len(referenced & scanned_ids)
        work = delete_bytes / self.scan_bytes_per_core_s + affected * self.delete_apply_per_file_s
        return work / max(parallelism, 1)

    def read_latency(self, plan: ScanPlan, parallelism: int) -> float:
        """End-to-end latency of scanning ``plan`` with ``parallelism`` cores."""
        parallelism = max(parallelism, 1)
        startup = plan.file_count * self.task_overhead_s
        scan = self.effective_scan_bytes(plan) / self.scan_bytes_per_core_s
        return (
            self.planning_latency(plan)
            + (startup + scan) / parallelism
            + self.merge_on_read_seconds(plan, parallelism)
        )

    # --- writes --------------------------------------------------------------

    def write_latency(self, total_bytes: int, file_count: int, parallelism: int) -> float:
        """Latency of writing ``total_bytes`` across ``file_count`` files."""
        parallelism = max(parallelism, 1)
        startup = file_count * self.task_overhead_s
        write = total_bytes / self.write_bytes_per_core_s
        return self.commit_s + (startup + write) / parallelism

    # --- compaction ------------------------------------------------------------

    def rewrite_duration(self, rewritten_bytes: int, executors: int) -> float:
        """Wall-clock duration of rewriting ``rewritten_bytes``."""
        executors = max(executors, 1)
        return self.compaction_startup_s + rewritten_bytes / (
            executors * self.rewrite_bytes_per_executor_s
        )

    def rewrite_bytes_per_hour(self, executors: int) -> float:
        """``RewriteBytesPerHour`` — system rewrite throughput (paper §4.2)."""
        return max(executors, 1) * self.rewrite_bytes_per_executor_s * 3600.0


#: A cost model with coarser throughput, handy for quick demos where even
#: modest tables should show visible latency differences.
DEMO_COST_MODEL = CostModel(
    scan_bytes_per_core_s=16 * MiB,
    write_bytes_per_core_s=8 * MiB,
    rewrite_bytes_per_executor_s=2 * GiB,
)
