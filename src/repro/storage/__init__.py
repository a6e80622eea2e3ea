"""Simulated distributed storage (HDFS/ADLS stand-in).

The paper's storage-health story is about *objects*, not bytes on disk: the
HDFS NameNode can only manage a bounded number of namespace objects, small
files inflate RPC traffic, and per-tenant namespace quotas get breached
(§1–§2).  This package models exactly that surface:

* :class:`~repro.storage.namenode.NameNode` — the namespace tree with object
  accounting and per-directory quotas;
* :class:`~repro.storage.filesystem.SimulatedFileSystem` — the client façade
  that records create/open/delete/list RPC traffic into telemetry.

Files are created and deleted in batches: ``NameNode.create_many`` takes a
directory and its ``(name, size)`` entries, ``NameNode.delete_many`` a list
of paths, and ``SimulatedFileSystem.create_files`` / ``delete_files`` sit
above them.  A batch normalises its directory, settles new ancestors and
looks up and charges the enclosing quotas once (deletes: once per parent
directory); only the existence check and the ``FileInfo`` are per file.
``create`` and ``delete`` are the one-file case.  The RPC counters still
grow by one per file, so Figure 11b's counts do not depend on batching,
and a batch that fails part-way leaves exactly what the same single calls
would have left.

A :class:`~repro.storage.namenode.FileInfo` is a named tuple, not a frozen
dataclass: every create builds one, so it is on the ingest hot path.  It
hashes as the tuple of its fields, which is what the dataclass hashed.

No actual bytes are stored; file sizes are bookkeeping attributes.
"""

from repro.storage.namenode import FileInfo, NameNode
from repro.storage.filesystem import SimulatedFileSystem

__all__ = ["FileInfo", "NameNode", "SimulatedFileSystem"]
