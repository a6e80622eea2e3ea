"""Command-line interface: ``python -m repro.lint [options] paths...``.

Exit codes: 0 clean, 1 error-severity findings (warnings too under
``--strict``), 2 usage errors.  ``--format json`` emits a machine-readable
report (the CI job uploads it as an artifact); ``--emit-contracts``
regenerates the RL003 manifest instead of linting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.lint.findings import Finding
from repro.lint.rules import RULE_CLASSES
from repro.lint.rules.rl003_contracts import (
    CONTRACT_BASENAMES,
    DEFAULT_MANIFEST,
    extract_contracts,
    write_manifest,
)
from repro.lint.runner import discover_files, run_lint
from repro.lint.suppressions import UNUSED_SUPPRESSION_ID


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant analyzer for the AutoComp reproduction: "
            "enforces the codebase's concurrency, durability and "
            "determinism contracts."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--fix-hints",
        action="store_true",
        help="include per-finding remediation hints in the output",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too (default: errors only)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RLxxx",
        help="run only the named rule(s); repeatable",
    )
    parser.add_argument(
        "--contracts",
        default=None,
        metavar="PATH",
        help=f"RL003 manifest path (default: {DEFAULT_MANIFEST})",
    )
    parser.add_argument(
        "--metrics-registry",
        default=None,
        metavar="PATH",
        help="RL004 registry module path (default: repro/obs/__init__.py)",
    )
    parser.add_argument(
        "--emit-contracts",
        action="store_true",
        help="regenerate the RL003 contract manifest from the tree and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _list_rules() -> None:
    print(f"{'ID':<7} {'SEVERITY':<9} TITLE")
    for cls in RULE_CLASSES:
        print(f"{cls.rule_id:<7} {cls.severity:<9} {cls.title}")
    print(
        f"{UNUSED_SUPPRESSION_ID:<7} {'warning':<9} "
        "unused suppression: a disable= directive matched no finding"
    )


def _emit_contracts(paths: list[str], manifest_path) -> int:
    files = discover_files(paths)
    trees = []
    for ctx in files:
        if os.path.basename(ctx.norm) not in CONTRACT_BASENAMES:
            continue
        ctx.load()
        if ctx.tree is not None:
            trees.append((ctx.norm, ctx.tree))
    extracted = extract_contracts(trees)
    if not extracted["classes"]:
        print(
            "repro.lint: no contract classes found under "
            f"{' '.join(paths)}; manifest not written",
            file=sys.stderr,
        )
        return 2
    write_manifest(extracted, manifest_path)
    print(
        f"repro.lint: wrote {len(extracted['classes'])} contract classes "
        f"(version {extracted['version']}) to {manifest_path}"
    )
    return 0


def _render_human(findings: list[Finding], show_hints: bool) -> None:
    for finding in findings:
        print(finding.render(show_hint=show_hints))
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    if findings:
        print(f"repro.lint: {errors} error(s), {warnings} warning(s)")
    else:
        print("repro.lint: clean")


def _render_json(findings: list[Finding], show_hints: bool) -> None:
    errors = sum(1 for f in findings if f.severity == "error")
    payload = {
        "tool": "repro.lint",
        "version": 1,
        "summary": {
            "findings": len(findings),
            "errors": errors,
            "warnings": len(findings) - errors,
        },
        "findings": [f.to_dict(include_hint=show_hints) for f in findings],
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        _list_rules()
        return 0
    if args.emit_contracts:
        return _emit_contracts(args.paths, args.contracts or DEFAULT_MANIFEST)
    findings, _ = run_lint(
        args.paths,
        contracts_manifest=args.contracts,
        metrics_registry_path=args.metrics_registry,
        select=args.select,
    )
    if args.format == "json":
        _render_json(findings, args.fix_hints)
    else:
        _render_human(findings, args.fix_hints)
    has_errors = any(f.severity == "error" for f in findings)
    if has_errors or (args.strict and findings):
        return 1
    return 0
