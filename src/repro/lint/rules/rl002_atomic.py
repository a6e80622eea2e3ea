"""RL002 — atomic-write discipline for durable state files.

**Invariant (PRs 6/9).** Durable control-plane state — the promoter's
``active.json``, the lock manager's and policy store's ``audit.jsonl``,
daemon state-machine files, committed benchmark baselines — must never be
written with a bare ``open(path, "w")`` / ``Path.write_text``: a crash
mid-write leaves a torn file that ``_recover()`` / ``verify_audit`` then
misreads.  The two blessed idioms are:

* **tmp + rename** — :func:`repro.durable.atomic_write` writes a temp
  file named for the writing process and thread completely, then
  ``os.replace(tmp, path)`` (readers see old or new, never torn);
* **O_APPEND record append** — :class:`repro.durable.Appender`, one
  ``write`` per record on a held ``O_APPEND`` file (atomic under
  ``PIPE_BUF`` on POSIX).

**What the rule does.** Flags ``open(x, "w"/"a"/...)`` calls and
``.write_text(...)`` calls whose target is *statically linked to a durable
state name*: a durable token appears in the string literals of the path
expression, in literals assigned to the path variable earlier in the same
function, or in the enclosing function's name (``write_baseline``).  The
call is exempt when the same function performs the tmp-dance (any
``os.replace`` call) or opens via ``os.open`` with ``O_APPEND``.

In product code (``repro/``, not tests or benchmarks) the rule also
flags every append-mode open — ``os.open`` with ``O_APPEND``, or
``open``/``io.open``/``io.FileIO`` with an ``"a"`` mode — outside
``repro/durable.py``: the appender is the one ``O_APPEND`` writer.

The token list is deliberately small and high-signal; new durable files
should be added to :data:`DURABLE_TOKENS` as they are introduced.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, dotted_name, in_product, string_constants

#: Substrings identifying durable-state files and tooling.
DURABLE_TOKENS = (
    "active.json",
    "audit.jsonl",
    "baseline",
    "state.json",
    "contracts.json",
    "metrics.prom",
    "status.json",
)

#: Write modes that replace or mutate file contents.
_WRITE_MODES = ("w", "a", "x", "+")

#: The one module of product code allowed to open a file for appending.
_APPENDER_MODULE = "repro/durable.py"


def _mode_of(call: ast.Call) -> str | None:
    """The literal mode of an ``open`` call, or None when not a literal."""
    mode_node = None
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode_node = kw.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None


def _durable_token_in(literals: Iterable[str]) -> str | None:
    for text in literals:
        for token in DURABLE_TOKENS:
            if token in text:
                return token
    return None


def _walk_scope(node: ast.AST):
    """``ast.walk`` that stops at nested function/class boundaries."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.append(child)


class _FunctionScan:
    """Write-calls and name→literals bindings of one function scope."""

    def __init__(self, func: ast.AST, name: str) -> None:
        self.name = name
        self.assigned_literals: dict[str, set[str]] = {}
        self.write_calls: list[tuple[ast.Call, str, ast.AST]] = []
        self.has_replace = False
        self.has_o_append = False
        self.append_opens: list[ast.Call] = []
        self._walk(func)

    def _walk(self, func: ast.AST) -> None:
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            # A nested def/class is its own scope (it gets its own scan);
            # without this, the module scope would re-own every function
            # body and report each write twice.
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for node in _walk_scope(stmt):
                if isinstance(node, ast.Assign):
                    literals = set(string_constants(node.value))
                    if literals:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                self.assigned_literals.setdefault(
                                    target.id, set()
                                ).update(literals)
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func) or ""
                if name == "os.replace":
                    self.has_replace = True
                elif name == "os.open":
                    flag_names = {
                        dotted_name(n) or getattr(n, "id", "")
                        for arg in node.args
                        for n in ast.walk(arg)
                        if isinstance(n, (ast.Name, ast.Attribute))
                    }
                    if any(str(f).endswith("O_APPEND") for f in flag_names):
                        self.has_o_append = True
                        self.append_opens.append(node)
                elif name in {"io.FileIO", "FileIO"}:
                    if "a" in (_mode_of(node) or ""):
                        self.append_opens.append(node)
                elif name in {"open", "io.open"} or name.endswith(".write_text"):
                    if name.endswith(".write_text"):
                        target = node.func.value  # type: ignore[union-attr]
                        self.write_calls.append((node, "write_text", target))
                    else:
                        mode = _mode_of(node)
                        if mode is not None and "a" in mode:
                            self.append_opens.append(node)
                        if mode is None or any(m in mode for m in _WRITE_MODES):
                            target = node.args[0] if node.args else node
                            self.write_calls.append((node, mode or "?", target))

    def path_literals(self, target: ast.AST) -> set[str]:
        literals = set(string_constants(target))
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                literals.update(self.assigned_literals.get(node.id, ()))
        return literals


class AtomicWriteRule(Rule):
    rule_id = "RL002"
    title = "atomic-write discipline: durable state written non-atomically"
    severity = "error"
    hint = (
        "Write durable state via `repro.durable.atomic_write(path, text)` "
        "(a per-writer temp file, then `os.replace`) or append records through "
        "`repro.durable.Appender(path).write(record)`, one write per record."
    )

    def check_file(self, ctx, project) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        scopes: list[tuple[ast.AST, str]] = [(ctx.tree, "<module>")]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, node.name))
        appends_allowed = not in_product(ctx.norm) or ctx.norm.endswith(_APPENDER_MODULE)
        for func, name in scopes:
            scan = _FunctionScan(func, name)
            if not appends_allowed:
                for call in scan.append_opens:
                    yield self.finding(
                        ctx,
                        call,
                        f"file opened for appending in {name}() outside "
                        "repro.durable; repro.durable.Appender is the one O_APPEND writer",
                    )
            for call, mode, target in scan.write_calls:
                literals = scan.path_literals(target)
                if any(".tmp" in text for text in literals):
                    continue  # the tmp half of the tmp+replace dance
                token = _durable_token_in(literals)
                if token is None:
                    lowered = name.lower()
                    token = next(
                        (
                            t
                            for t in ("baseline", "audit", "active")
                            if t in lowered
                        ),
                        None,
                    )
                if token is None:
                    continue
                if scan.has_replace or (mode == "a" and scan.has_o_append):
                    continue
                what = "write_text" if mode == "write_text" else f'open(..., "{mode}")'
                yield self.finding(
                    ctx,
                    call,
                    f"durable state ({token!r}) written with bare {what} in "
                    f"{name}(); a crash mid-write leaves a torn file",
                )
