"""Regression tests for the true positives the analyzer surfaced.

Rolling ``repro.lint`` over the tree found real bugs (exactly the classes
of bug the rules encode): torn counter snapshots in the cache telemetry
path (RL001) and a non-atomic committed-baseline write in the benchmark
gate tooling (RL002).  These tests pin the fixes.
"""

from __future__ import annotations

import importlib.util
import json
import threading
from pathlib import Path
from typing import ClassVar

import pytest

from repro.core.connectors import Connector
from repro.core.statscache import IndexedCandidateCache

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class _NullConnector(Connector):
    """Bare connector: just enough surface to exercise cache_counters()."""

    def list_candidates(self, strategy="table"):
        return []

    def collect_statistics(self, key):
        raise NotImplementedError


class TestCountersSnapshot:
    def test_statscache_snapshot_matches_attributes(self):
        cache = IndexedCandidateCache(ttl_s=100.0)
        cache.get(0, now=1.0)  # miss
        cache.put(0, object(), now=1.0)
        cache.get(0, now=1.0)  # hit
        assert cache.counters_snapshot() == {
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "expirations": 0,
        }

    def test_indexed_cache_snapshot_matches_attributes(self):
        cache = IndexedCandidateCache(ttl_s=100.0)
        cache.get(0, now=1.0)  # miss (empty slot)
        cache.record_lookups(hits=3, misses=2, expirations=1)
        assert cache.counters_snapshot() == {
            "hits": 3,
            "misses": 3,
            "invalidations": 0,
            "expirations": 1,
        }

    def test_snapshot_is_never_torn_under_concurrency(self):
        """hits+misses always equals completed lookups at snapshot time.

        IndexedCandidateCache.get() counts exactly one of hits/misses per
        call under the lock; a snapshot taken under the same lock can
        therefore never observe a state where the sum disagrees with the
        number of completed lookups by more than the calls still in
        flight.  The old attribute-by-attribute read could tear between
        the two loads.
        """
        cache = IndexedCandidateCache(ttl_s=1e9)
        cache.put(0, object(), now=0.0)
        lookups_done = threading.Barrier(3)
        stop = threading.Event()
        per_thread = 2000

        def hammer():
            lookups_done.wait()
            for _ in range(per_thread):
                cache.get(0, now=0.0)

        workers = [threading.Thread(target=hammer) for _ in range(2)]
        for worker in workers:
            worker.start()

        torn = []

        def sample():
            lookups_done.wait()
            previous = 0
            while not stop.is_set():
                counters = cache.counters_snapshot()
                total = counters["hits"] + counters["misses"]
                if total < previous:  # totals can only grow
                    torn.append((previous, total))
                previous = total

        sampler = threading.Thread(target=sample)
        sampler.start()
        for worker in workers:
            worker.join()
        stop.set()
        sampler.join()
        assert torn == []
        final = cache.counters_snapshot()
        assert final["hits"] == 2 * per_thread

    def test_connector_cache_counters_prefers_the_snapshot(self):
        """cache_counters() reads counters_snapshot, not the attributes."""

        class _Probe:
            hits = 999  # must NOT be read attribute-by-attribute
            misses = 999
            expirations = 999

            @staticmethod
            def counters_snapshot():
                return {"hits": 1, "misses": 2, "expirations": 3}

        connector = _NullConnector()
        connector.stats_cache = _Probe()
        counters = connector.cache_counters()
        assert counters["hits"] == 1.0
        assert counters["misses"] == 2.0
        assert counters["expirations"] == 3.0



def _load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWriteBaselineAtomicity:
    CURRENT: ClassVar = {
        "bench": "bench_fig99",
        "config": {"tables": 4, "cores": 8},
        "metrics": {"cycles": 12, "wall_s": 1.5},
    }

    def test_writes_a_parseable_baseline_and_no_tmp_leftovers(self, tmp_path, capsys):
        module = _load_check_regression()
        path = tmp_path / "bench_fig99.json"
        module.write_baseline(self.CURRENT, str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["bench"] == "bench_fig99"
        assert "cores" not in payload["config"]  # machine-shaped, never pinned
        assert payload["metrics"]["cycles"] == {"value": 12, "check": "exact"}
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != path.name]
        assert leftovers == []

    def test_crash_mid_write_preserves_the_previous_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        """The RL002 fix: a failure mid-dump must not tear the old file.

        The pre-fix ``open(path, "w")`` truncated the committed baseline
        before writing, so a crash left an empty/torn gate input.
        """
        module = _load_check_regression()
        path = tmp_path / "bench_fig99.json"
        module.write_baseline(self.CURRENT, str(path))
        before = path.read_bytes()

        def explode(*args, **kwargs):
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr(module.json, "dump", explode)
        with pytest.raises(RuntimeError):
            module.write_baseline(self.CURRENT, str(path))
        assert path.read_bytes() == before  # old baseline intact, not torn
