"""Design metrics: how much code and configuration the program carries.

Writes one row per ``--label`` into this checkout's ``BENCH_design.json``
(a row with the same label is replaced), measured on the checkout at
``--root`` (default: this one):

* ``src_lines`` — lines of ``src/**/*.py``;
* ``constructor_params`` — parameter count (``self`` excluded) of each
  constructor ``tests/test_constructor_widths.py`` pins;
* ``tests_only_symbols`` / ``allowlist_size`` — the public ``src/``
  symbols that only tests reach, as ``tests/test_public_reach.py`` counts
  them (allowlisted ones excluded), and the size of its allowlist;
* ``tier1`` — with ``--tier1``: the tier-1 suite's passed and failed
  counts, its wall seconds, and the machine it ran on: CPU count, Python
  version and ``calib_burn_us`` (the end-to-end benchmark's CPU-speed
  probe) measured next to it.

The constructor list and the reach scan come from this checkout's tests,
so rows measured on other checkouts (``--root``) stay comparable.  The
file is a record, not a gate.

Run as a script::

    python benchmarks/design_metrics.py --label <commit> [--tier1] [--root DIR]
"""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row key, e.g. a commit id")
    parser.add_argument("--root", default=str(REPO), help="checkout to measure")
    parser.add_argument("--tier1", action="store_true", help="also run the tier-1 suite")
    return parser.parse_args(argv)


def src_lines(root: Path) -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted((root / "src").rglob("*.py"))
    )


def pinned_constructors() -> dict[str, tuple[str, str]]:
    """Class name → ``(module, name)`` of each class the widths test pins."""
    tree = ast.parse((REPO / "tests" / "test_constructor_widths.py").read_text("utf-8"))
    modules = {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    widths = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "WIDTHS"
    )
    return {key.id: (modules[key.id], key.id) for key in widths.keys}


def constructor_params() -> dict[str, int]:
    counts = {}
    for name, (module, attr) in sorted(pinned_constructors().items()):
        cls = getattr(importlib.import_module(module), attr)
        counts[name] = len(inspect.signature(cls.__init__).parameters) - 1
    return counts


def reach_counts(root: Path) -> tuple[int, int]:
    spec = importlib.util.spec_from_file_location(
        "public_reach", REPO / "tests" / "test_public_reach.py"
    )
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    reach.ROOT, reach.SRC = root, root / "src"
    hits = [hit for hit in reach.scan() if hit[2] not in reach.ALLOWLIST]
    return len(hits), len(reach.ALLOWLIST)


def tier1(root: Path) -> dict:
    sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))
    from run import calibrate_burn_us  # the e2e benchmark's CPU-speed probe

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    wall_s = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "wall_s": round(wall_s, 2),
        "calib_burn_us": round(calibrate_burn_us(), 1),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    tests_only, allowlist = reach_counts(root)
    row = {
        "label": args.label,
        "src_lines": src_lines(root),
        "constructor_params": constructor_params(),
        "tests_only_symbols": tests_only,
        "allowlist_size": allowlist,
        "tier1": tier1(root) if args.tier1 else None,
    }
    path = REPO / "BENCH_design.json"
    rows = json.loads(path.read_text("utf-8"))["rows"] if path.exists() else []
    rows = [r for r in rows if r["label"] != args.label] + [row]
    path.write_text(json.dumps({"rows": rows}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
