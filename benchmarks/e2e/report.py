#!/usr/bin/env python3
"""Render benchmark result files as markdown tables.

Usage::

    python3 benchmarks/e2e/report.py .bench_build/e2e/*.json

Each argument is a file written by ``run.py --out``.  Traced results
(``--trace 1``) become the layer table — each layer's self time per
episode window and its share of the window — followed by every named
per-layer metric; untraced results become the end-to-end table.  One
column per workload.
"""

from __future__ import annotations

import json
import sys

from ledger import LAYERS


def _columns(results: list[dict]) -> list[str]:
    return [r["workload"] for r in results]


def layer_table(results: list[dict]) -> str:
    """Self time per layer as ``seconds (share of the window)``."""
    names = _columns(results)
    lines = [
        "| layer | " + " | ".join(names) + " |",
        "|---|" + "---|" * len(names),
    ]

    def cell(result: dict, metric: str) -> str:
        metrics = result["metrics"]
        value = metrics[metric]["value"]
        wall = metrics["ledger.wall_s"]["value"]
        return f"{value:.3f} s ({100 * value / wall:.1f}%)"

    for layer in LAYERS:
        lines.append(
            f"| {layer} | " + " | ".join(cell(r, f"{layer}.self_s") for r in results) + " |"
        )
    lines.append(
        "| unattributed | "
        + " | ".join(cell(r, "ledger.unattributed_s") for r in results)
        + " |"
    )
    lines.append(
        "| **window wall** | "
        + " | ".join(f"{r['metrics']['ledger.wall_s']['value']:.3f} s" for r in results)
        + " |"
    )
    lines.append(
        "| trace overhead | "
        + " | ".join(f"{r['metrics']['ledger.trace_overhead']['value']:.2f}x" for r in results)
        + " |"
    )
    return "\n".join(lines)


def metric_table(results: list[dict], skip=lambda name: False) -> str:
    """Every metric of the results, one row each, with its unit."""
    names = _columns(results)
    metric_names = sorted({m for r in results for m in r["metrics"] if not skip(m)})
    lines = [
        "| metric | unit | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for metric in metric_names:
        unit = next(r["metrics"][metric]["unit"] for r in results if metric in r["metrics"])
        cells = [
            f"{r['metrics'][metric]['value']:.6g}" if metric in r["metrics"] else "—"
            for r in results
        ]
        lines.append(f"| {metric} | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render(results: list[dict]) -> str:
    traced = [r for r in results if r["trace"]]
    untraced = [r for r in results if not r["trace"]]
    sections = []
    if untraced:
        sections.append("### End-to-end metrics\n\n" + metric_table(untraced))
    if traced:
        sections.append("### Layer self time per episode window\n\n" + layer_table(traced))
        sections.append(
            "### Per-layer metrics\n\n"
            + metric_table(traced, skip=lambda name: name.endswith(".self_s"))
        )
    return "\n\n".join(sections) + "\n"


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            results.append(json.load(stream))
    sys.stdout.write(render(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
