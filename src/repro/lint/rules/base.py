"""Rule base class, the per-file index and shared AST helpers for ``repro.lint``."""

from __future__ import annotations

import ast
import os
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.runner import FileContext, ProjectContext


class Rule:
    """One invariant check with a stable id.

    Rules are instantiated fresh per run (cross-file rules accumulate
    state on ``self`` between :meth:`check_file` calls and report it in
    :meth:`finalize`).

    Class attributes:
        rule_id: stable ``RLxxx`` identifier used in reports and
            suppression comments.
        title: one-line summary for ``--list-rules`` and docs.
        severity: default severity of this rule's findings.
        hint: generic remediation guidance shown under ``--fix-hints``
            (individual findings may override).
    """

    rule_id = "RL000"
    title = "base rule"
    severity = "error"
    hint = ""

    def applies_to(self, ctx: "FileContext") -> bool:
        """Whether :meth:`check_file` should run on this file."""
        return True

    def check_file(
        self, ctx: "FileContext", project: "ProjectContext"
    ) -> Iterable[Finding]:
        """Per-file findings (and cross-file state accumulation)."""
        return ()

    def finalize(self, project: "ProjectContext") -> Iterable[Finding]:
        """Findings that need the whole scanned set (cross-file rules)."""
        return ()

    def finding(
        self,
        ctx_or_path,
        node_or_line,
        message: str,
        hint: str | None = None,
        col: int | None = None,
    ) -> Finding:
        """Build a finding anchored at an AST node (or explicit line)."""
        path = ctx_or_path if isinstance(ctx_or_path, str) else ctx_or_path.norm
        if isinstance(node_or_line, int):
            line, column = node_or_line, col or 0
        else:
            line = getattr(node_or_line, "lineno", 1)
            column = getattr(node_or_line, "col_offset", 0) if col is None else col
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=path,
            line=line,
            col=column,
            message=message,
            hint=self.hint if hint is None else hint,
        )


# --- the per-file index -------------------------------------------------------

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Nodes that a scope stops at: they and everything inside them are not
#: part of the enclosing scope (a def body is a scope of its own).
_BOUNDARIES = frozenset({ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda})


class Scope:
    """The module or one function body: its own nodes, by type.

    Nested defs, classes and lambdas, with everything inside them, are
    left out, and so are a function's decorators, defaults and
    annotations: code in a class body or a lambda is in no scope.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.by_type: dict[type, list[ast.AST]] = defaultdict(list)

    def nodes(self, kind: type) -> list[ast.AST]:
        """This scope's nodes of exactly ``kind``, in ``ast.walk`` order."""
        return self.by_type.get(kind, [])


class FileIndex:
    """One breadth-first walk of a module, shared by every rule.

    ``ast.walk`` order throughout: :meth:`nodes` lists every node of a
    type, ``parents`` maps each node to its parent, and ``scopes`` holds
    the module scope followed by one :class:`Scope` per function.
    Expression contexts (``Load``/``Store``/``Del``) are left out.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.parents: dict[ast.AST, ast.AST] = {}
        self.by_type: dict[type, list[ast.AST]] = defaultdict(list)
        module = Scope("<module>")
        self.scopes = [module]
        parents, by_type, scopes = self.parents, self.by_type, self.scopes
        queue: deque = deque([(tree, None)])
        pop, push = queue.popleft, queue.append
        while queue:
            node, scope = pop()
            kind = type(node)
            by_type[kind].append(node)
            if scope is not None:
                scope.by_type[kind].append(node)
            # The scope of this node's children.  Of a def's children only
            # its body statements are in its scope; a class or a lambda
            # opens none.
            inner, body = scope, None
            if kind is ast.Module:
                inner = module
            elif kind in _FUNCTIONS:
                inner = Scope(node.name)
                scopes.append(inner)
                body = {id(stmt) for stmt in node.body}
            elif kind in _BOUNDARIES:
                inner = None
            for field in kind._fields:
                if field == "ctx":
                    continue  # Load/Store/Del markers: no rule reads them
                value = getattr(node, field, None)
                for child in value if type(value) is list else (value,):
                    if not isinstance(child, ast.AST):
                        continue
                    parents[child] = node
                    if type(child) in _BOUNDARIES or (
                        body is not None and id(child) not in body
                    ):
                        push((child, None))
                    else:
                        push((child, inner))

    def nodes(self, kind: type) -> list[ast.AST]:
        """Every node of exactly ``kind`` in the file, in ``ast.walk`` order."""
        return self.by_type.get(kind, [])

    def method_owners(self, node: ast.AST) -> Iterator[tuple[ast.ClassDef, ast.AST]]:
        """``(class, method)`` for every method containing ``node``, innermost first."""
        parent = self.parents.get(node)
        while parent is not None:
            grand = self.parents.get(parent)
            if isinstance(parent, _FUNCTIONS) and isinstance(grand, ast.ClassDef):
                yield grand, parent
            parent = grand


# --- shared AST helpers -------------------------------------------------------


def in_product(norm: str) -> bool:
    """True for product sources under ``repro/`` (not tests or benchmarks)."""
    posix = norm.replace(os.sep, "/")
    if "/tests/" in posix or posix.startswith("tests/"):
        return False
    if "/benchmarks/" in posix or posix.startswith("benchmarks/"):
        return False
    return "repro/" in posix


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def string_constants(node: ast.AST) -> Iterator[str]:
    """Every string literal anywhere inside ``node`` (f-strings included)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def literal_prefix(node: ast.AST) -> str | None:
    """The constant prefix of a dynamically-built string, if detectable.

    Handles f-strings whose first piece is a constant
    (``f"autocomp.locks.{event}"`` → ``"autocomp.locks."``) and string
    concatenation with a constant left side (``"autocomp." + name``).
    Returns None when the expression has no static prefix.
    """
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = node.left
        if isinstance(left, ast.Constant) and isinstance(left.value, str):
            return left.value
        return literal_prefix(left)
    return None
