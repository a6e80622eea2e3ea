"""Client façade over the NameNode with RPC accounting.

Every client-visible operation increments an RPC counter in telemetry under
the ``storage.rpc.*`` namespace.  Figure 11b of the paper plots exactly this
signal — ``filesystem open() calls`` per month — before and after compaction
rollouts, so the counters here are the ground truth for that experiment.
"""

from __future__ import annotations

from typing import Iterable

from repro.simulation.clock import SimClock
from repro.simulation.telemetry import Telemetry
from repro.storage.namenode import FileInfo, NameNode
from repro.units import MiB, SMALL_FILE_THRESHOLD


class SimulatedFileSystem:
    """HDFS-like filesystem client.

    Args:
        namenode: namespace server; a fresh one is created if omitted.
        telemetry: sink for RPC counters; a private one if omitted.
        clock: source of creation timestamps; a private zero clock if omitted.
    """

    def __init__(
        self,
        namenode: NameNode | None = None,
        telemetry: Telemetry | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.namenode = namenode if namenode is not None else NameNode()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.clock = clock if clock is not None else SimClock()

    # --- RPC-counted operations ---------------------------------------------

    def create_file(self, path: str, size_bytes: int) -> FileInfo:
        """Create a file of ``size_bytes`` at ``path`` (counts a create RPC)."""
        self.telemetry.increment("storage.rpc.create")
        return self.namenode.create(path, size_bytes, created_at=self.clock.now)

    def create_files(
        self, directory: str, entries: Iterable[tuple[str, int]]
    ) -> list[FileInfo]:
        """Create the ``(name, size_bytes)`` files in ``directory`` as one batch.

        See :meth:`NameNode.create_many` for what a batch does once; the
        create RPC count is what the same :meth:`create_file` calls make.
        """
        return self._counted(
            "storage.rpc.create", self.namenode.create_many, directory, entries, self.clock.now
        )

    def record_opens(self, count: int) -> None:
        """Bulk-record ``count`` open RPCs without path lookups.

        Query execution opens every scanned file; looking each up by path
        would be pure overhead in large simulations, so the engine calls this
        with the per-query file count instead.
        """
        if count > 0:
            self.telemetry.increment("storage.rpc.open", count)

    def delete_file(self, path: str) -> FileInfo:
        """Delete a file (counts a delete RPC)."""
        self.telemetry.increment("storage.rpc.delete")
        return self.namenode.delete(path)

    def delete_files(self, paths: Iterable[str]) -> list[FileInfo]:
        """Delete the files at ``paths`` as one batch (see
        :meth:`NameNode.delete_many`); the delete RPC count is what the same
        :meth:`delete_file` calls make."""
        return self._counted("storage.rpc.delete", self.namenode.delete_many, paths)

    def _counted(self, counter: str, batch, *args) -> list[FileInfo]:
        """``batch(*args)``, counting one ``counter`` RPC per item it reaches.

        A batch stops at its first failing item, which counts as its single
        call would; the items before it are the files the batch added or
        removed.
        """
        before = self.namenode.file_count
        try:
            done = batch(*args)
        except Exception:
            self.telemetry.increment(counter, abs(self.namenode.file_count - before) + 1)
            raise
        if done:
            self.telemetry.increment(counter, len(done))
        return done

    def exists(self, path: str) -> bool:
        """Whether ``path`` exists (counts a getFileInfo RPC)."""
        self.telemetry.increment("storage.rpc.stat")
        return self.namenode.exists(path)

    # --- quota management -------------------------------------------------------

    def set_quota(self, directory: str, max_objects: int) -> None:
        """Attach a namespace quota to ``directory``."""
        self.namenode.set_quota(directory, max_objects)

    def quota_usage(self, directory: str) -> tuple[int, int]:
        """``(used, limit)`` for the quota on ``directory``."""
        return self.namenode.quota_usage(directory)

    def quota_utilization(self, directory: str) -> float:
        """``UsedQuota / TotalQuota`` for ``directory`` — the §7 weight input."""
        used, limit = self.namenode.quota_usage(directory)
        return used / limit

    # --- health metrics (not RPC-counted; these are operator-side reads) ---------

    def file_count(self, prefix: str = "/") -> int:
        """Number of files under ``prefix``."""
        return self.namenode.count_under(prefix)

    def total_bytes(self) -> int:
        """Total stored bytes."""
        return self.namenode.total_bytes

    def small_file_count(
        self, prefix: str = "/", threshold: int = SMALL_FILE_THRESHOLD
    ) -> int:
        """Files under ``prefix`` smaller than ``threshold`` (default 128 MiB)."""
        return sum(
            1 for info in self.namenode.files_under(prefix) if info.size_bytes < threshold
        )

    def small_file_fraction(
        self, prefix: str = "/", threshold: int = SMALL_FILE_THRESHOLD
    ) -> float:
        """Fraction of files under ``prefix`` below ``threshold`` (0 if empty)."""
        files = self.namenode.files_under(prefix)
        if not files:
            return 0.0
        small = sum(1 for info in files if info.size_bytes < threshold)
        return small / len(files)

    def size_histogram(
        self, bucket_edges_mib: Iterable[int], prefix: str = "/"
    ) -> dict[str, int]:
        """File counts per size bucket, for Figure 1/2-style distributions.

        Args:
            bucket_edges_mib: ascending bucket upper edges in MiB; a final
                overflow bucket is added automatically.
            prefix: directory to restrict to.

        Returns:
            Ordered mapping from bucket label (``'<16MiB'``, ``'16-32MiB'``,
            ``'>=512MiB'``) to file count.
        """
        edges = sorted(int(e) for e in bucket_edges_mib)
        if not edges:
            raise ValueError("need at least one bucket edge")
        labels = [f"<{edges[0]}MiB"]
        labels += [f"{lo}-{hi}MiB" for lo, hi in zip(edges, edges[1:])]
        labels.append(f">={edges[-1]}MiB")
        counts = dict.fromkeys(labels, 0)
        for info in self.namenode.files_under(prefix):
            size_mib = info.size_bytes / MiB
            for edge, label in zip(edges, labels):
                if size_mib < edge:
                    counts[label] += 1
                    break
            else:
                counts[labels[-1]] += 1
        return counts
