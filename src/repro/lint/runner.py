"""File discovery and rule orchestration for ``repro.lint``.

The runner walks the requested paths, parses each ``*.py`` once and
indexes its tree in one walk (:class:`~repro.lint.rules.base.FileIndex`),
runs every registered rule over every file it applies to, gives cross-file
rules a ``finalize`` pass over the whole scanned set, then filters
findings through the inline suppression directives — reporting directives
that suppressed nothing as ``RL007`` warnings so accepted exceptions
cannot go stale silently.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Iterable

from repro.lint.findings import Finding, sort_findings
from repro.lint.rules import all_rules
from repro.lint.rules.base import FileIndex
from repro.lint.rules.rl003_contracts import DEFAULT_MANIFEST
from repro.lint.rules.rl004_metrics import DEFAULT_REGISTRY, load_registry
from repro.lint.suppressions import (
    UNUSED_SUPPRESSION_ID,
    FileSuppressions,
    parse_suppressions,
)

#: Rule id for files the analyzer cannot parse at all.
PARSE_ERROR_ID = "RL000"


class FileContext:
    """One parsed source file handed to the rules, with its :class:`FileIndex`."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.norm = str(path).replace(os.sep, "/")
        self.source: str = ""
        self.tree: ast.AST | None = None
        self.index: FileIndex | None = None
        self.parse_error: SyntaxError | None = None
        self.suppressions: FileSuppressions = FileSuppressions()

    def load(self) -> None:
        self.source = self.path.read_text(encoding="utf-8")
        self.suppressions = parse_suppressions(self.source)
        try:
            self.tree = ast.parse(self.source, filename=str(self.path))
        except SyntaxError as exc:
            self.parse_error = exc
            return
        self.index = FileIndex(self.tree)


class ProjectContext:
    """The whole scanned set plus run configuration, shared by the rules."""

    def __init__(
        self,
        files: list[FileContext],
        contracts_manifest: str | os.PathLike | None = None,
        metrics_registry_path: str | os.PathLike | None = None,
    ) -> None:
        self.files = files
        self.contracts_manifest = os.fspath(contracts_manifest or DEFAULT_MANIFEST)
        self.metrics_registry_path = os.fspath(
            metrics_registry_path or DEFAULT_REGISTRY
        )
        self._metrics_registry: dict[str, int] | None = None
        self._metrics_loaded = False

    def metrics_registry(self) -> dict[str, int] | None:
        """The parsed ``METRICS`` registry (cached; None when unreadable)."""
        if not self._metrics_loaded:
            self._metrics_registry = load_registry(self.metrics_registry_path)
            self._metrics_loaded = True
        return self._metrics_registry


def discover_files(paths: Iterable[str | os.PathLike]) -> list[FileContext]:
    """All ``*.py`` files under ``paths`` (dirs recursed, dupes dropped)."""
    seen: set[Path] = set()
    out: list[FileContext] = []

    def _add(path: Path) -> None:
        resolved = path.resolve()
        if resolved in seen:
            return
        seen.add(resolved)
        out.append(FileContext(path))

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.parts
                if "__pycache__" in parts or any(
                    p.startswith(".") and p not in (".", "..") for p in parts
                ):
                    continue
                _add(candidate)
        elif path.suffix == ".py":
            _add(path)
    return out


def run_lint(
    paths: Iterable[str | os.PathLike],
    rules=None,
    contracts_manifest: str | os.PathLike | None = None,
    metrics_registry_path: str | os.PathLike | None = None,
    select: Iterable[str] | None = None,
) -> tuple[list[Finding], ProjectContext]:
    """Lint ``paths``; returns (sorted findings, project context).

    Args:
        paths: files and/or directories to scan.
        rules: rule instances to run (default: one fresh instance of every
            registered rule).
        contracts_manifest: RL003 manifest override (tests point this at
            scratch manifests).
        metrics_registry_path: RL004 registry override.
        select: when given, only rules whose id is in this set run
            (suppression tracking still covers all ids).
    """
    files = discover_files(paths)
    for ctx in files:
        ctx.load()
    project = ProjectContext(
        files,
        contracts_manifest=contracts_manifest,
        metrics_registry_path=metrics_registry_path,
    )
    active = list(rules) if rules is not None else all_rules()
    if select is not None:
        wanted = set(select)
        active = [rule for rule in active if rule.rule_id in wanted]

    raw: list[Finding] = []
    for ctx in files:
        if ctx.parse_error is not None:
            raw.append(
                Finding(
                    rule_id=PARSE_ERROR_ID,
                    severity="error",
                    path=ctx.norm,
                    line=ctx.parse_error.lineno or 1,
                    col=(ctx.parse_error.offset or 1) - 1,
                    message=f"syntax error: {ctx.parse_error.msg}",
                )
            )
            continue
        for rule in active:
            if rule.applies_to(ctx):
                raw.extend(rule.check_file(ctx, project))
    for rule in active:
        raw.extend(rule.finalize(project))

    by_norm = {ctx.norm: ctx for ctx in files}
    kept: list[Finding] = []
    for finding in raw:
        ctx = by_norm.get(finding.path)
        if ctx is not None and ctx.suppressions.is_suppressed(
            finding.rule_id, finding.line
        ):
            continue
        kept.append(finding)

    selected_ids = {rule.rule_id for rule in active}
    for ctx in files:
        for line, rule_id in ctx.suppressions.unused():
            if rule_id not in selected_ids:
                continue  # partial runs can't judge other rules' suppressions
            kept.append(
                Finding(
                    rule_id=UNUSED_SUPPRESSION_ID,
                    severity="warning",
                    path=ctx.norm,
                    line=line,
                    col=0,
                    message=(
                        f"unused suppression: no {rule_id} finding is "
                        "reported on this line (or file) — remove the stale "
                        "directive"
                    ),
                    hint="Delete the directive, or re-check why the finding disappeared.",
                )
            )
    return sort_findings(kept), project
