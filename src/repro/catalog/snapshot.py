"""Statistics constructors shared by live and worker-side observation.

The scale-out control plane's process workers
(:mod:`repro.core.workers`) cannot touch a live
:class:`~repro.catalog.catalog.Catalog` — open tables hold clocks,
filesystems and commit logs that must not cross a process boundary.  What
crosses instead is the raw observation input of each dirty candidate
(file sizes, target file size, partition and delete-file counts,
timestamps, quota utilisation), packed as flat arrays by
:class:`~repro.core.columnar.ColumnarMissBlock`.

Both the live :class:`~repro.core.connectors.LstConnector` path
(:func:`build_candidate_statistics`) and the columnar rebuild
(:func:`build_candidate_statistics_batch`) produce their statistics here,
so a worker-observed candidate is value-identical to a
coordinator-observed one — the property the worker modes' byte-identical
cycle reports rest on.
"""

from __future__ import annotations


def build_candidate_statistics(
    file_sizes,
    target_file_size: int,
    partition_count: int,
    delete_file_count: int,
    created_at: float,
    last_modified_at: float,
    quota_utilization: float,
):
    """The statistics constructor behind live catalog observation.

    :meth:`LstConnector._collect_statistics
    <repro.core.connectors.LstConnector>` calls this;
    :func:`build_candidate_statistics_batch` is its columnar twin.
    """
    # Imported lazily: this module is reachable from ``repro.catalog``
    # before ``repro.core`` finishes initialising (core imports catalog),
    # so a module-level import could bite during partial initialisation.
    from repro.core.candidates import CandidateStatistics

    return CandidateStatistics.from_file_sizes(
        list(file_sizes),
        target_file_size=target_file_size,
        partition_count=partition_count,
        delete_file_count=delete_file_count,
        created_at=created_at,
        last_modified_at=last_modified_at,
        quota_utilization=quota_utilization,
    )


def build_candidate_statistics_batch(
    columns: dict,
    sizes: list | None = None,
    size_offsets: list | None = None,
) -> list:
    """Vectorised batch twin of :func:`build_candidate_statistics`.

    The columnar worker transport (:mod:`repro.core.columnar`) hands this
    per-field scalar lists (already materialised from its int64/float64
    arrays via ``tolist()``, so every value is an exact Python scalar) and
    optionally the concatenated file-size list with per-candidate offsets.
    Statistics come from the trusted
    :meth:`~repro.core.candidates.CandidateStatistics.build_unchecked`
    constructor — the aggregates were computed by exact integer array
    sums, making each row value-identical to a
    :func:`build_candidate_statistics` call over the same inputs.

    Args:
        columns: name → per-candidate list for every scalar
            :class:`~repro.core.candidates.CandidateStatistics` field
            (``file_count`` … ``quota_utilization``).
        sizes: all candidates' file sizes concatenated, or None when the
            source tracks no per-file detail (rows then carry empty
            ``file_sizes``).
        size_offsets: ``n + 1`` offsets delimiting candidate ``i``'s sizes
            as ``sizes[size_offsets[i]:size_offsets[i + 1]]``.
    """
    from repro.core.candidates import CandidateStatistics

    build = CandidateStatistics.build_unchecked
    file_count = columns["file_count"]
    total_bytes = columns["total_bytes"]
    small_count = columns["small_file_count"]
    small_bytes = columns["small_file_bytes"]
    target = columns["target_file_size"]
    partitions = columns["partition_count"]
    deletes = columns["delete_file_count"]
    created = columns["created_at"]
    modified = columns["last_modified_at"]
    quota = columns["quota_utilization"]
    out = []
    for i in range(len(file_count)):
        file_sizes: tuple = ()
        if sizes is not None:
            file_sizes = tuple(sizes[size_offsets[i] : size_offsets[i + 1]])
        out.append(
            build(
                file_count=file_count[i],
                total_bytes=total_bytes[i],
                small_file_count=small_count[i],
                small_file_bytes=small_bytes[i],
                target_file_size=target[i],
                partition_count=partitions[i],
                created_at=created[i],
                last_modified_at=modified[i],
                quota_utilization=quota[i],
                file_sizes=file_sizes,
                delete_file_count=deletes[i],
            )
        )
    return out
