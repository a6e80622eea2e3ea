"""Rewrite (compaction) planning and execution.

The planner implements the bin-packing strategy every LST ships for its
``rewrite_data_files`` / ``OPTIMIZE`` action: within each partition, collect
the files smaller than the target size and replace them with
``ceil(total_bytes / target)`` evenly sized outputs.  Compaction never
crosses partition boundaries — the very property that makes the paper's
table-level ΔF_c estimator overestimate achievable reduction (§7, "Model
Accuracy and Estimation Errors"), which ``estimate_table_level_reduction``
(the paper's formula) versus :meth:`RewritePlan.file_count_reduction` (the
partition-aware truth) lets experiments quantify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ValidationError
from repro.lst.base import BaseTable
from repro.lst.files import DataFile
from repro.lst.snapshot import Snapshot


@dataclass(frozen=True)
class PartitionRewrite:
    """One partition's rewrite group: sources in, evenly packed outputs out."""

    partition: tuple
    sources: tuple[DataFile, ...]
    output_sizes: tuple[int, ...]

    @property
    def input_count(self) -> int:
        """Number of source files."""
        return len(self.sources)

    @property
    def output_count(self) -> int:
        """Number of replacement files."""
        return len(self.output_sizes)

    @property
    def input_bytes(self) -> int:
        """Bytes rewritten by this group."""
        return sum(f.size_bytes for f in self.sources)

    @property
    def file_count_reduction(self) -> int:
        """Net live-file reduction this group achieves."""
        return self.input_count - self.output_count


@dataclass(frozen=True)
class RewritePlan:
    """A full compaction plan for one candidate (table or partition scope)."""

    table: str
    groups: tuple[PartitionRewrite, ...]

    @property
    def is_empty(self) -> bool:
        """Whether there is nothing worth rewriting."""
        return not self.groups

    @property
    def input_file_count(self) -> int:
        """Total source files across groups."""
        return sum(g.input_count for g in self.groups)

    @property
    def output_file_count(self) -> int:
        """Total output files across groups."""
        return sum(g.output_count for g in self.groups)

    @property
    def rewritten_bytes(self) -> int:
        """Total bytes read and rewritten."""
        return sum(g.input_bytes for g in self.groups)

    @property
    def file_count_reduction(self) -> int:
        """Net live-file reduction (partition-aware ground truth)."""
        return self.input_file_count - self.output_file_count


def pack_sizes(total_bytes: int, target_size: int) -> tuple[int, ...]:
    """Split ``total_bytes`` into the fewest outputs each at most ``target_size``.

    Outputs are evenly sized (differing by at most one byte), matching how a
    bin-packing rewrite job balances its writers.

    Raises:
        ValidationError: on non-positive target or negative total.
    """
    if target_size <= 0:
        raise ValidationError(f"target size must be positive, got {target_size}")
    if total_bytes < 0:
        raise ValidationError(f"total bytes must be >= 0, got {total_bytes}")
    if total_bytes == 0:
        return ()
    count = math.ceil(total_bytes / target_size)
    base, remainder = divmod(total_bytes, count)
    return tuple(base + 1 if i < remainder else base for i in range(count))


def plan_rewrite(
    files: list[DataFile],
    target_file_size: int,
    table: str = "",
    partitions: list[tuple] | None = None,
    min_input_files: int = 2,
) -> RewritePlan:
    """Plan a bin-packing rewrite over ``files``.

    Args:
        files: live data files of the candidate (any partitions mixed).
        target_file_size: desired output size; files at or above it are left
            untouched.
        table: label recorded in the plan (for telemetry/reporting).
        partitions: restrict planning to these partitions (None = all).
        min_input_files: partitions with fewer small files than this are
            skipped — rewriting one file buys nothing.

    Returns:
        A plan whose groups strictly reduce file counts; partitions where
        bin-packing would not reduce the count are omitted.
    """
    if min_input_files < 1:
        raise ValidationError("min_input_files must be >= 1")
    wanted = set(partitions) if partitions is not None else None
    by_partition: dict[tuple, list[DataFile]] = {}
    for data_file in files:
        if wanted is not None and data_file.partition not in wanted:
            continue
        if data_file.size_bytes < target_file_size:
            by_partition.setdefault(data_file.partition, []).append(data_file)

    groups = []
    for partition in sorted(by_partition):
        sources = sorted(by_partition[partition], key=lambda f: f.file_id)
        if len(sources) < min_input_files:
            continue
        total = sum(f.size_bytes for f in sources)
        output_sizes = pack_sizes(total, target_file_size)
        if len(output_sizes) >= len(sources):
            continue  # packing would not reduce the file count
        groups.append(
            PartitionRewrite(
                partition=partition,
                sources=tuple(sources),
                output_sizes=output_sizes,
            )
        )
    return RewritePlan(table=table, groups=tuple(groups))


def plan_table_rewrite(
    table: BaseTable,
    partitions: list[tuple] | None = None,
    min_input_files: int = 2,
    target_file_size: int | None = None,
) -> RewritePlan:
    """Plan a rewrite for a live table (convenience wrapper).

    A partition-scope plan reads only those partitions' files, from the
    table's head partition index.
    """
    target = target_file_size if target_file_size is not None else table.target_file_size
    return plan_rewrite(
        table.live_files() if partitions is None else table.files_in_partitions(partitions),
        target_file_size=target,
        table=str(table.identifier),
        partitions=partitions,
        min_input_files=min_input_files,
    )


def execute_rewrite(table: BaseTable, plan: RewritePlan) -> Snapshot | None:
    """Apply a rewrite plan in a single rewrite transaction.

    Returns:
        The committed snapshot, or None if the plan was empty.

    Raises:
        CommitConflictError: if concurrent activity invalidated the plan
            (cluster-side conflict).
    """
    if plan.is_empty:
        return None
    txn = table.new_rewrite()
    for group in plan.groups:
        txn.rewrite(list(group.sources), list(group.output_sizes))
    return txn.commit()


def estimate_table_level_reduction(files: list[DataFile], target_file_size: int) -> int:
    """The paper's ΔF_c estimator: count of files below the target size.

    This is the formula from §4.2:

        ΔF_c = Σ_i  1[ FileSize_i,c < TargetFileSize_c ]

    It ignores partition boundaries and output-file counts, so it
    *overestimates* actual reduction (by ~28% in the paper's production
    measurements); experiments compare it against
    :meth:`RewritePlan.file_count_reduction`.
    """
    if target_file_size <= 0:
        raise ValidationError(f"target size must be positive, got {target_file_size}")
    return sum(1 for f in files if f.size_bytes < target_file_size)
