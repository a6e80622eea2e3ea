#!/usr/bin/env python3
"""End-to-end benchmark: one workload, its end-to-end or per-layer metrics.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload ingest_stream --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload fleet_cycle --trace 1 --out .bench_build/e2e/fleet.json

A run repeats one seed-deterministic *episode* (set-up, a measured window
of 120 compaction cycles, checks) ``--seconds`` ÷ the workload's nominal
episode length times, and at least three times.  Every episode must reach
the same decision digest; at the default size it must also match
``expected.json``.  The episodes time the same operations in the same
order, so each operation's time is the fastest over the episodes, after
scaling it to the reference CPU speed by the probes around its round (see
``scaled``).

``--trace 0`` prints the end-to-end metrics and asserts that no wrapper
was installed; ``--trace 1`` runs one untraced episode (the overhead
baseline) and then traced episodes, and prints the per-layer ledger.
The last line of standard output is the result object; the line before
it holds the machine block, the digest, the unscaled timings and
per-episode detail.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

#: Episodes every run makes at least, so each operation has a fastest
#: time over several machine states and set-up time has a median.
MIN_EPISODES = 3

#: Nominal wall seconds of one default-size episode on the reference
#: machine; ``--seconds`` divided by it is the episode count.
EPISODE_S = {"ingest_stream": 4.0, "fleet_cycle": 6.0, "daemon_durable": 9.0}

#: A run on a machine much slower than the reference stops starting
#: episodes (past the minimum) after this many times ``--seconds``.
DEADLINE = 2.0

#: Probe time (seconds) of the reference CPU speed every timing is
#: scaled to: ``workloads.probe()`` on the 2-vCPU virtual machine the
#: bounds were measured on (Python 3.11.7) took 330–750 µs, following
#: the machine's speed.
REFERENCE_PROBE_S = 420e-6

#: Largest share of a traced window the ledger may leave unattributed.
MAX_UNATTRIBUTED = 0.10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0, help="run length to fill")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default")
    parser.add_argument(
        "--memtrace",
        action="store_true",
        help="with --trace 1: add <package>.alloc_mb from tracemalloc",
    )
    parser.add_argument("--out", help="also write the full result JSON here")
    parser.add_argument(
        "--update-expected",
        action="store_true",
        help="record this run's digest as the workload's expected digest",
    )
    return parser.parse_args(argv)


def calibrate_burn_us(repeats: int = 21, units: int = 1000) -> float:
    """Median wall microseconds of one ``burn_cpu(1000)`` call on this machine."""
    from repro.core.workers import burn_cpu

    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        burn_cpu(units)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def machine_block() -> dict:
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calib_burn_us": calibrate_burn_us(),
    }


def children_usage() -> tuple[float, float]:
    """CPU seconds and peak RSS (MB) of every reaped child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def alloc_by_package(snapshot) -> dict[str, float]:
    """tracemalloc live bytes grouped by ``src/repro/<package>``, in MB."""
    root = str(SRC / "repro") + os.sep
    totals: dict[str, float] = {}
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        if not filename.startswith(root):
            continue
        package = filename[len(root):].split(os.sep)[0]
        package = "repro" if package.endswith(".py") else package
        totals[f"{package}.alloc_mb"] = totals.get(f"{package}.alloc_mb", 0.0) + stat.size / 2**20
    return totals


def scaled(episode, kind: str, scale=True):
    """An episode's ``<kind>_s`` wall-time samples at the reference CPU speed.

    Each sample is multiplied by ``REFERENCE_PROBE_S`` over the probe of
    the round it was taken in.  The CPUs of a shared virtual machine
    switch between speeds up to about 2x apart for seconds to minutes at
    a time, following other tenants' load; the probe sees the switch, the
    scaling takes most of it out.
    """
    import numpy as np

    values = np.asarray(getattr(episode, f"{kind}_s"), dtype=float)
    if not scale:
        return values
    probes = np.asarray(episode.round_probe_s, dtype=float)
    if kind != "round":
        probes = probes[np.asarray(getattr(episode, f"{kind}_round"), dtype=int)]
    return values * (REFERENCE_PROBE_S / probes)


def end_to_end(episodes, scale=True) -> dict[str, float]:
    """End-to-end metrics over a run's aligned episodes.

    Entry ``i`` of an episode's samples times the same operation in every
    episode, so each operation's time is its fastest over the episodes:
    a slow stretch of the shared machine must then hit the same
    operation in every episode to show.
    """
    import numpy as np

    def fastest(kind: str):
        return np.min([scaled(ep, kind, scale) for ep in episodes], axis=0)

    commit, cycle, control, rounds = (fastest(k) for k in ("commit", "cycle", "control", "round"))
    setup = [
        ep.setup_s * (REFERENCE_PROBE_S / statistics.fmean(ep.setup_probe_s) if scale else 1.0)
        for ep in episodes
    ]
    first = episodes[0]
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    return {
        "setup_s": float(statistics.median(setup)),
        "commit_p50_ms": float(np.percentile(commit, 50)) * 1e3,
        "commit_p95_ms": float(np.percentile(commit, 95)) * 1e3,
        "ingest_files_per_s": first.files_committed / float(rounds.sum()),
        "cycle_p50_ms": float(np.percentile(cycle, 50)) * 1e3,
        "cycle_p90_ms": float(np.percentile(cycle, 90)) * 1e3,
        "candidates_per_s": first.candidates / float(cycle.sum()),
        "control_s_per_cycle": float(control.sum()) / len(cycle),
        "live_files_per_table": statistics.fmean(first.live_files_mean),
        "files_reduced_per_gbhr": first.files_reduced / first.gbhr,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_success_ratio": (attempted - failed) / attempted,
    }


def check_episodes(episodes, expected: str | None) -> list[str]:
    """Every correctness problem across a run's episodes."""
    problems = [p for ep in episodes for p in ep.problems]
    digests = {ep.digest() for ep in episodes}
    if len(digests) != 1:
        problems.append(f"episodes disagree: {len(digests)} distinct decision digests")
    outcomes = {(ep.files_reduced, ep.gbhr, tuple(ep.live_files_mean)) for ep in episodes}
    if len(outcomes) != 1:
        problems.append(f"episodes disagree on compaction outcomes ({len(outcomes)} distinct)")
    shapes = {
        (len(ep.commit_s), len(ep.cycle_s), len(ep.control_s), len(ep.round_s)) for ep in episodes
    }
    if len(shapes) != 1:
        problems.append("episodes timed different operations")
    digest = episodes[0].digest()
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} != expected {expected}")
    for ep in episodes:
        if not ep.cycle_s or not ep.commit_s or ep.candidates == 0:
            problems.append("an episode measured no cycle, commit or candidate")
    return problems


class Run:
    """One benchmark run: its episode count and work directory."""

    def __init__(self, args, workloads) -> None:
        self.args = args
        self.workloads = workloads
        self.seed = args.seed if args.seed is not None else workloads.DEFAULT_SEED
        nominal = EPISODE_S[args.workload] if args.size == "default" else float("inf")
        self.episodes = max(MIN_EPISODES, int(args.seconds // nominal))
        self.count = 0
        self.workdir = ROOT / ".bench_build" / "e2e" / f"run-{os.getpid()}"
        self.start = time.monotonic()

    def more(self, done: int) -> bool:
        """Whether to run another episode after ``done`` of this kind."""
        if done < MIN_EPISODES:
            return True
        late = time.monotonic() - self.start > DEADLINE * self.args.seconds
        return done < self.episodes and not late

    def episode(self, before_window=None, after_window=None):
        workdir = self.workdir / f"episode-{self.count}"
        self.count += 1
        workdir.mkdir(parents=True)
        return self.workloads.run_episode(
            self.args.workload,
            self.seed,
            self.args.size,
            str(workdir),
            before_window=before_window,
            after_window=after_window,
        )


def untraced_episodes(run: Run, ledger) -> list:
    pristine = ledger.originals()
    episodes = []
    while run.more(len(episodes)):
        episodes.append(
            run.episode(before_window=lambda w: ledger.assert_pristine(pristine, w.catalog))
        )
    ledger.assert_pristine(pristine)
    return episodes


def traced_episode(run: Run, book) -> tuple:
    """One episode with the ledger installed; returns it and its per-layer metrics."""
    metrics: dict[str, float] = {}

    def before(workload):
        book.wrap_commit_hooks(workload.catalog)
        book.reset()

    def after(workload, episode):
        # Read the ledger before the post-window checks call into it.
        metrics.update(book.metrics(episode.window_s))
        if run.args.memtrace:
            metrics.update(alloc_by_package(tracemalloc.take_snapshot()))

    cpu_before, _ = children_usage()
    episode = run.episode(before_window=before, after_window=after)
    cpu_after, child_rss = children_usage()
    counts = episode.counts
    hits, misses = counts.get("cache_hits", 0.0), counts.get("cache_misses", 0.0)
    metrics.update(
        {
            "lst.live_files_p50": counts.get("live_files_p50", 0.0),
            "connectors.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "workers.child_cpu_s": cpu_after - cpu_before,
            # Only workloads that started (and reaped) worker processes.
            "workers.child_peak_rss_mb": child_rss if cpu_after > cpu_before else 0.0,
            "promoter.shadow_evals": counts.get("shadow_evals", 0.0),
            "promoter.promotions": counts.get("promotions", 0.0),
            "promoter.rollbacks": counts.get("rollbacks", 0.0),
            "obs.spans_dumped": counts.get("spans", 0.0),
        }
    )
    if metrics["ledger.unattributed_s"] > MAX_UNATTRIBUTED * metrics["ledger.wall_s"]:
        episode.problems.append(
            f"ledger leaves {metrics['ledger.unattributed_s']:.3f}s of "
            f"{metrics['ledger.wall_s']:.3f}s unattributed"
        )
    return episode, {name: float(value) for name, value in metrics.items()}


def traced_episodes(run: Run, ledger) -> tuple[list, dict[str, float]]:
    """One untraced baseline, then traced episodes; returns the ledger medians."""
    pristine = ledger.originals()
    baseline = run.episode(before_window=lambda w: ledger.assert_pristine(pristine, w.catalog))
    ledger.assert_pristine(pristine)
    book = ledger.Ledger()
    episodes, samples = [baseline], []
    if run.args.memtrace:
        tracemalloc.start()
    book.install()
    try:
        while run.more(len(episodes)):
            episode, metrics = traced_episode(run, book)
            episodes.append(episode)
            samples.append(metrics)
    finally:
        book.uninstall()
        if run.args.memtrace:
            tracemalloc.stop()
    ledger.assert_pristine(pristine)
    medians = {
        name: statistics.median(sample[name] for sample in samples) for name in samples[0]
    }

    def window(ep) -> float:
        return float(scaled(ep, "round").sum())

    medians["ledger.trace_overhead"] = (
        statistics.median(window(ep) for ep in episodes[1:]) / window(baseline)
    )
    return episodes, medians


def write_json_atomic(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def stop_resource_tracker() -> None:
    """Join the shared-memory resource tracker process, if one was started."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import ledger
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.memtrace and not args.trace:
        print("--memtrace needs --trace 1", file=sys.stderr)
        return 2

    run = Run(args, workloads)
    # Anything the program or multiprocessing puts in a temp dir stays
    # inside the checkout, and is removed with the run's work directory.
    run.workdir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(run.workdir)
    try:
        machine = machine_block()
        if args.trace:
            episodes, metrics = traced_episodes(run, ledger)
            unscaled = {}
        else:
            episodes = untraced_episodes(run, ledger)
            metrics = end_to_end(episodes)
            unscaled = end_to_end(episodes, scale=False)
    finally:
        stop_resource_tracker()
        shutil.rmtree(run.workdir, ignore_errors=True)

    # Every seed makes the same decisions (see ``workloads.stratified``), so
    # one digest per workload checks every run of the default size.
    default_size = args.size == "default"
    expected_digests = json.loads(EXPECTED.read_text(encoding="utf-8"))
    digest = episodes[0].digest()
    if args.update_expected:
        if not default_size:
            print("--update-expected needs the default size", file=sys.stderr)
            return 2
        expected_digests[args.workload] = digest
        write_json_atomic(EXPECTED, expected_digests)
    expected = expected_digests.get(args.workload) if default_size else None
    problems = check_episodes(episodes, expected)
    if default_size and expected is None:
        problems.append(f"expected.json has no digest for {args.workload}")
    # BENCHMARK.json is the one list of metric names and units.
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    units.update({name: "MB" for name in metrics if name.endswith(".alloc_mb")})
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not problems,
        "attempted": sum(ep.attempted for ep in episodes),
        "failed": sum(ep.failed for ep in episodes),
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()
        },
    }
    detail = {
        "workload": args.workload,
        "seed": run.seed,
        "size": args.size,
        "trace": args.trace,
        "machine": machine,
        "digest": digest,
        "unscaled": unscaled,
        "episodes": [
            {
                "setup_s": ep.setup_s,
                "window_s": ep.window_s,
                "cycles": len(ep.cycle_s),
                "probe_us": statistics.median(ep.round_probe_s) * 1e6,
            }
            for ep in episodes
        ],
        "problems": problems,
    }
    if args.out:
        write_json_atomic(Path(args.out), {**detail, **result})
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
