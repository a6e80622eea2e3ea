"""Iceberg-like table format.

Metadata layout per commit, mirroring Apache Iceberg:

* a new ``vN.metadata.json`` table-metadata file,
* a new manifest-list (``snap-*.avro``) enumerating reachable manifests, and
* one new manifest (``manifest-*.avro``) describing the commit's changes.

Manifests *accumulate* across appends — the planning cost of a query grows
with every trickle write — and are compacted back to a single manifest by a
rewrite, reproducing cause (iv) of small-file proliferation in §2 of the
paper (metadata itself becomes many small files).

Conflict semantics default to :meth:`ConflictSemantics.iceberg_v1_2`,
including the §4.4 quirk where concurrent rewrites of distinct partitions
conflict.
"""

from __future__ import annotations

from repro.lst.base import BaseTable, ConflictSemantics
from repro.lst.snapshot import Snapshot
from repro.units import KiB

#: Base size of a table-metadata JSON file.
METADATA_JSON_BASE = 8 * KiB
#: Incremental metadata JSON growth per retained snapshot.
METADATA_JSON_PER_SNAPSHOT = 256
#: Base size of a manifest-list file plus per-manifest entry cost.
MANIFEST_LIST_BASE = 2 * KiB
MANIFEST_LIST_PER_MANIFEST = 64
#: Base size of a manifest file plus per-file entry cost.
MANIFEST_BASE = 4 * KiB
MANIFEST_PER_ENTRY = 160


class IcebergTable(BaseTable):
    """Apache-Iceberg-v1.2.0-like log-structured table."""

    format_name = "iceberg"

    def _default_conflict_semantics(self) -> ConflictSemantics:
        return ConflictSemantics.iceberg_v1_2()

    def _metadata_files(self, version: int) -> tuple[str, int]:
        return f"{self.location}/metadata", 3

    def _write_commit_metadata(
        self,
        snapshot_id: int,
        version: int,
        added: int,
        removed: int,
        parent: Snapshot | None,
        operation: str,
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        metadata_dir = f"{self.location}/metadata"
        manifest = f"manifest-{version:06d}.avro"
        manifest_list = f"snap-{snapshot_id:06d}.avro"
        metadata_json = f"v{version:06d}.metadata.json"

        manifest_path = f"{metadata_dir}/{manifest}"
        if operation == "replace":
            # A rewrite rewrites the manifest graph down to one manifest.
            manifest_paths: tuple[str, ...] = (manifest_path,)
        else:
            previous = parent.manifest_paths if parent else ()
            manifest_paths = previous + (manifest_path,)

        manifest_size = MANIFEST_BASE + MANIFEST_PER_ENTRY * (added + removed)
        list_size = MANIFEST_LIST_BASE + MANIFEST_LIST_PER_MANIFEST * len(manifest_paths)
        json_size = METADATA_JSON_BASE + METADATA_JSON_PER_SNAPSHOT * (len(self._snapshots) + 1)
        self.fs.create_files(
            metadata_dir,
            [(manifest, manifest_size), (manifest_list, list_size), (metadata_json, json_size)],
        )
        exclusive = (f"{metadata_dir}/{manifest_list}", f"{metadata_dir}/{metadata_json}")
        return manifest_paths, exclusive
