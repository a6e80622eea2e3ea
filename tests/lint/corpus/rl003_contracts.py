"""RL003 corpus: worker contract classes that drifted from their manifest."""

FILES = {
    "corpus/repro/core/workers.py": '''\
from dataclasses import dataclass

WORK_SPEC_VERSION = 7


@dataclass(frozen=True)
class ShardWorkSpec:
    shard_index: int
    n_shards: int
    deadline_s: float


@dataclass(frozen=True)
class ShardCycleResult:
    shards: int
    results: tuple


@dataclass(frozen=True)
class CacheDelta:
    slots: tuple
''',
    "corpus/repro/core/columnar.py": '''\
from dataclasses import dataclass


@dataclass(frozen=True)
class ColumnarMissBlock:
    file_sizes: list
''',
    "corpus/contracts.json": '''\
{
  "version": 7,
  "classes": {
    "ColumnarMissBlock": {"fields": [["file_sizes", "list"]], "hash": "0d6e8951ad03a51c"},
    "ShardCycleResult": {
      "fields": [["shards", "int"], ["results", "tuple"]],
      "hash": "c0e050e7ebb6b3ba"
    },
    "ShardDecision": {"fields": [["selected", "tuple"]], "hash": "0000000000000000"},
    "ShardWorkSpec": {
      "fields": [["shard_index", "int"], ["n_shards", "int"]],
      "hash": "0000000000000000"
    }
  }
}
''',
}
