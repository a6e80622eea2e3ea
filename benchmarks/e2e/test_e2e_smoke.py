"""Smoke test of the end-to-end benchmark at its ``tiny`` sizes.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it with
``python -m pytest benchmarks/e2e``.  Every workload must emit exactly the
metrics ``BENCHMARK.json`` names, with their units, reach the same
decision digest untraced and traced (and on another seed), and close its
per-layer ledger.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def outputs(proc) -> tuple[dict, dict]:
    """The detail line and the result line a run printed last."""
    assert proc.returncode == 0, proc.stderr
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(result)


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_and_one_digest(workload):
    common = ("--workload", workload, "--size", "tiny", "--seconds", "0")
    plain_detail, plain = outputs(bench(*common, "--seed", "7", "--trace", "0"))
    # Another seed reorders the files but makes the same decisions.
    traced_detail, traced = outputs(bench(*common, "--seed", "8", "--trace", "1"))

    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == 0 and plain["attempted"] > 0
    assert units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in plain["metrics"].values())
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert plain_detail["digest"] == traced_detail["digest"]
    ledger = traced["metrics"]
    assert ledger["ledger.unattributed_s"]["value"] <= 0.1 * ledger["ledger.wall_s"]["value"]


def test_memtrace_adds_allocations_per_package():
    _, result = outputs(
        bench(
            "--workload", "ingest_stream", "--size", "tiny", "--seconds", "0",
            "--trace", "1", "--memtrace",
        )
    )
    assert result["metrics"]["lst.alloc_mb"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = bench(
        "--workload", "ingest_stream", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
        script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
