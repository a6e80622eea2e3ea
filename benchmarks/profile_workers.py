"""Flamegraph harness for the LST shard-worker transport.

Answers "where does a worker-mode cycle actually spend its time?" the way
Arc's ingestion-profiling script does: run the realistic workload under a
sampling profiler and keep the artifact next to the bench baselines, so a
perf claim in ``benchmarks/baselines/scaleout_lst.json`` is always backed
by a committed profile (see the baseline's ``profiles`` key).

Profiler selection:

* **py-spy** (preferred): when the ``py-spy`` binary is on PATH, the
  harness re-executes itself under ``py-spy record --subprocesses`` —
  the ``--subprocesses`` flag is what captures the forked process-mode
  shard workers — and writes a flamegraph SVG.
* **cProfile** (fallback): hermetic environments without py-spy get a
  deterministic cProfile run instead: a ``.pstats`` dump plus a
  cumulative-time top table as text.  cProfile only sees the coordinator
  process, which is still the right lens for the transport: pack, merge
  and cache-delta application all happen coordinator-side.

Usage::

    python benchmarks/profile_workers.py --mode processes --label after
    python benchmarks/profile_workers.py --mode inline

Artifacts land in ``benchmarks/profiles/`` as
``lst_<mode>_<label>.{svg,pstats,txt}``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

#: How many stack frames the text fallback keeps per sort order.
TOP_FRAMES = 40


def run_workload(mode: str, tables: int, days: int, seed: int) -> dict:
    """The profiled region: warm-up plus ``days`` measured LST cycles."""
    from bench_scaleout import _build_lst_catalog, _lst_daily_writes, _lst_pipeline

    catalog = _build_lst_catalog(tables, seed)
    pipeline = _lst_pipeline(catalog, 2, mode, max_workers=2)
    selected = 0
    try:
        for cycle in range(1 + days):  # first cycle warms caches + pools
            report = pipeline.run_cycle(now=catalog.clock.now)
            selected += len(report.selected)
            _lst_daily_writes(catalog, cycle)
    finally:
        pipeline.close()
    return {"cycles": 1 + days, "selected": selected}


def _artifact_stem(args) -> str:
    return f"lst_{args.mode}_{args.label}"


def record_pyspy(args, out_dir: str) -> int:
    """Re-exec the workload under ``py-spy record`` (flamegraph SVG)."""
    out = os.path.join(out_dir, f"{_artifact_stem(args)}.svg")
    inner = [
        sys.executable,
        os.path.abspath(__file__),
        "--inner",
        "--mode",
        args.mode,
        "--tables",
        str(args.tables),
        "--days",
        str(args.days),
        "--seed",
        str(args.seed),
    ]
    command = [
        "py-spy",
        "record",
        "--subprocesses",  # capture the forked process-mode shard workers
        "--rate",
        str(args.rate),
        "--format",
        "flamegraph",
        "-o",
        out,
        "--",
        *inner,
    ]
    print(f"profiling under py-spy -> {out}")
    code = subprocess.call(command)
    if code == 0:
        print(f"wrote {out}")
    return code


def record_cprofile(args, out_dir: str) -> int:
    """cProfile fallback: ``.pstats`` dump + cumulative top table as text."""
    stem = _artifact_stem(args)
    pstats_path = os.path.join(out_dir, f"{stem}.pstats")
    text_path = os.path.join(out_dir, f"{stem}.txt")
    profiler = cProfile.Profile()
    profiler.enable()
    summary = run_workload(args.mode, args.tables, args.days, args.seed)
    profiler.disable()
    profiler.dump_stats(pstats_path)

    buffer = io.StringIO()
    buffer.write(
        f"# LST worker-transport profile (cProfile fallback; py-spy not on PATH)\n"
        f"# mode={args.mode} "
        f"tables={args.tables} days={args.days} seed={args.seed}\n"
        f"# cycles={summary['cycles']} selected={summary['selected']}\n"
        f"# coordinator-process view: pack/merge/cache-delta costs "
        f"are coordinator-side, worker CPU appears as executor waits\n\n"
    )
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs()
    for sort in ("cumulative", "tottime"):
        buffer.write(f"## top {TOP_FRAMES} by {sort}\n")
        stats.sort_stats(sort).print_stats(TOP_FRAMES)
        buffer.write("\n")
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(buffer.getvalue())
    print(f"wrote {pstats_path}")
    print(f"wrote {text_path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["inline", "processes"], default="processes")
    parser.add_argument("--tables", type=int, default=120)
    parser.add_argument("--days", type=int, default=8)
    parser.add_argument("--seed", type=int, default=20250730)
    parser.add_argument("--label", default="profile", help="artifact suffix, e.g. before/after")
    parser.add_argument("--rate", type=int, default=250, help="py-spy sample rate (Hz)")
    parser.add_argument("--out-dir", default=os.path.join(BENCH_DIR, "profiles"))
    parser.add_argument(
        "--no-pyspy",
        action="store_true",
        help="force the cProfile fallback even when py-spy is available",
    )
    parser.add_argument(
        "--inner", action="store_true", help=argparse.SUPPRESS
    )  # the re-exec'd workload child under py-spy
    args = parser.parse_args()

    if args.inner:
        summary = run_workload(args.mode, args.tables, args.days, args.seed)
        print(f"workload done: {summary}")
        return 0

    os.makedirs(args.out_dir, exist_ok=True)
    if not args.no_pyspy and shutil.which("py-spy"):
        return record_pyspy(args, args.out_dir)
    if not args.no_pyspy:
        print("py-spy not on PATH; falling back to cProfile (coordinator-only view)")
    return record_cprofile(args, args.out_dir)


if __name__ == "__main__":
    raise SystemExit(main())
