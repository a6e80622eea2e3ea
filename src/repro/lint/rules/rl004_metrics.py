"""RL004 — metrics registry consistency: emitted names ↔ ``repro.obs.METRICS``.

**Invariant (PR 7).** ``repro.obs.METRICS`` is the single registry of
well-known metric names: the Prometheus exporter renders ``# HELP`` from
it and operators discover the observable surface through it.  A counter
incremented under an unregistered name silently exports with no help text
and never appears in docs; a registry entry nothing emits is dead weight
that misleads dashboards.

**What the rule does.** Parses the registry dict straight out of
``repro/obs/__init__.py`` (AST only, no imports), then:

* **forward** — every string literal starting with ``autocomp.`` passed to
  a telemetry write (``.increment`` / ``.record`` / ``.observe``, or the
  ``histogram`` argument of a :func:`~repro.obs.tracing.timed` block) in
  ``src/`` must be a registry key.  Dynamically built names with a static
  prefix (``f"autocomp.locks.{event}"``) are checked as prefixes: the
  prefix must match at least one registry key.
* **reverse** — every registry key must be emitted somewhere in the
  scanned sources, either as an exact literal or covered by a dynamic
  prefix; unreferenced keys are flagged as dead registry entries (at their
  line in the registry).  The reverse check only runs when the registry
  file itself is part of the scan (so linting a single module never
  reports the rest of the registry as dead).

Per-shard scopes (``autocomp.shard00.…``) go through ``ScopedTelemetry``
with *unprefixed* names, so they never hit the forward check — which is
intentional: the registry documents fleet-level names only.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, in_product, literal_prefix

#: Telemetry write methods whose first argument is a metric name.
_WRITE_METHODS = frozenset({"increment", "record", "observe"})

#: Only names in this namespace are governed by the registry.
_NAMESPACE = "autocomp."

#: Default registry module, resolved relative to this package
#: (src/repro/lint/rules/ → src/repro/obs/__init__.py).
DEFAULT_REGISTRY = (
    Path(__file__).resolve().parent.parent.parent / "obs" / "__init__.py"
)


def load_registry(path: str | os.PathLike) -> dict[str, int] | None:
    """``{metric name: line}`` parsed from the METRICS dict literal."""
    try:
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):  # METRICS: dict[...] = {...}
            targets = [node.target]
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "METRICS" for t in targets):
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            out = {}
            for key in value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    out[key.value] = key.lineno
            return out
    return None


def _metric_name_arg(call: ast.Call) -> ast.expr | None:
    """The metric-name argument of a telemetry write or a ``timed`` block."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
        return call.args[0] if call.args else None
    if getattr(func, "id", getattr(func, "attr", None)) == "timed":
        # timed(tracer, name, histogram=None, telemetry=None, ...)
        if len(call.args) > 2:
            return call.args[2]
        return next((k.value for k in call.keywords if k.arg == "histogram"), None)
    return None


class MetricsRegistryRule(Rule):
    rule_id = "RL004"
    title = "metrics registry: emitted names not registered / dead registry entries"
    severity = "error"
    hint = (
        "Register every emitted autocomp.* metric name in repro.obs.METRICS "
        "with its kind and help text, and delete registry entries nothing "
        "emits (or emit them)."
    )

    def __init__(self) -> None:
        self._used_literals: set[str] = set()
        self._used_prefixes: set[str] = set()
        self._registry_scanned = False

    def applies_to(self, ctx) -> bool:
        return in_product(ctx.norm)  # registry governance excludes tests/benches

    def check_file(self, ctx, project) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        registry = project.metrics_registry()
        registry_path = Path(project.metrics_registry_path).resolve()
        try:
            if Path(ctx.path).resolve() == registry_path:
                self._registry_scanned = True
        except OSError:  # pragma: no cover - unresolvable paths
            pass
        for node in ctx.index.nodes(ast.Call):
            name_node = _metric_name_arg(node)
            if name_node is None:
                continue
            if isinstance(name_node, ast.Constant) and isinstance(
                name_node.value, str
            ):
                name = name_node.value
                if name.startswith(_NAMESPACE):
                    self._used_literals.add(name)
                    if registry is not None and name not in registry:
                        yield self.finding(
                            ctx,
                            name_node,
                            f"metric {name!r} is emitted but not declared in "
                            "repro.obs.METRICS",
                        )
            else:
                prefix = literal_prefix(name_node)
                if prefix and prefix.startswith(_NAMESPACE):
                    self._used_prefixes.add(prefix)
                    if registry is not None and not any(
                        key.startswith(prefix) for key in registry
                    ):
                        yield self.finding(
                            ctx,
                            name_node,
                            f"dynamic metric name with prefix {prefix!r} "
                            "matches no repro.obs.METRICS entry",
                        )

    def finalize(self, project) -> Iterable[Finding]:
        if not self._registry_scanned:
            return
        registry = project.metrics_registry()
        if registry is None:
            return
        registry_norm = next(
            (
                ctx.norm
                for ctx in project.files
                if Path(ctx.path).resolve()
                == Path(project.metrics_registry_path).resolve()
            ),
            str(project.metrics_registry_path),
        )
        for name, line in sorted(registry.items()):
            if name in self._used_literals:
                continue
            if any(name.startswith(prefix) for prefix in self._used_prefixes):
                continue
            yield self.finding(
                registry_norm,
                line,
                f"dead registry entry: {name!r} is declared in "
                "repro.obs.METRICS but never emitted in the scanned sources",
            )
