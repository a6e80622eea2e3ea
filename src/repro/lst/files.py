"""Immutable data and delete files.

LSTs store table contents in immutable columnar files; updates never modify
a file in place.  Two content kinds exist, mirroring Iceberg:

* ``DATA`` files hold rows;
* ``POSITION_DELETES`` files (merge-on-read) mark rows of specific data
  files as deleted and must be merged at read time — the accumulation of
  these is one of the paper's causes of small-file proliferation (§2,
  cause ii).

Both records are named tuples rather than frozen dataclasses: every
ingested file is built once per commit, so their construction is on the
ingest hot path, and a tuple costs a fraction of a frozen dataclass's
field-by-field ``__setattr__``.  A frozen dataclass hashes as the tuple
of its fields, so each record's hash (and with it every set and dict
order built from records) is the one the dataclasses had.  A subclass
adds ``__slots__ = ()`` and a validating ``__new__``; callers on the hot
path pass fields positionally, which is the cheaper call.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

_tuple_new = tuple.__new__


class FileContent(enum.Enum):
    """What a file stores."""

    DATA = "data"
    POSITION_DELETES = "position_deletes"


class _DataFileFields(NamedTuple):
    file_id: int
    path: str
    size_bytes: int
    record_count: int
    partition: tuple = ()
    content: FileContent = FileContent.DATA


class DataFile(_DataFileFields):
    """One immutable data file registered in a table.

    Attributes:
        file_id: table-scoped unique id (stable across snapshots).
        path: absolute storage path.
        size_bytes: file size.
        record_count: number of rows.
        partition: partition tuple this file belongs to; ``()`` for
            unpartitioned tables.

    Raises:
        ValueError: for a negative size or record count.
    """

    __slots__ = ()

    def __new__(
        cls,
        file_id: int,
        path: str,
        size_bytes: int,
        record_count: int,
        partition: tuple = (),
        content: FileContent = FileContent.DATA,
    ) -> "DataFile":
        if size_bytes < 0:
            raise ValueError(f"file size must be >= 0, got {size_bytes}")
        if record_count < 0:
            raise ValueError(f"record count must be >= 0, got {record_count}")
        return _tuple_new(cls, (file_id, path, size_bytes, record_count, partition, content))


class _DeleteFileFields(NamedTuple):
    file_id: int
    path: str
    size_bytes: int
    record_count: int
    partition: tuple = ()
    references: frozenset[int] = frozenset()
    content: FileContent = FileContent.POSITION_DELETES


class DeleteFile(_DeleteFileFields):
    """A merge-on-read position-delete file.

    Attributes:
        file_id: table-scoped unique id.
        path: absolute storage path.
        size_bytes: file size.
        record_count: number of delete records.
        partition: partition the referenced data files live in.
        references: ``file_id``s of the data files whose rows it deletes;
            readers scanning any of those files must also read this file.

    Raises:
        ValueError: for a negative size or record count.
    """

    __slots__ = ()

    def __new__(
        cls,
        file_id: int,
        path: str,
        size_bytes: int,
        record_count: int,
        partition: tuple = (),
        references: frozenset[int] = frozenset(),
        content: FileContent = FileContent.POSITION_DELETES,
    ) -> "DeleteFile":
        if size_bytes < 0:
            raise ValueError(f"file size must be >= 0, got {size_bytes}")
        if record_count < 0:
            raise ValueError(f"record count must be >= 0, got {record_count}")
        return _tuple_new(
            cls, (file_id, path, size_bytes, record_count, partition, references, content)
        )
