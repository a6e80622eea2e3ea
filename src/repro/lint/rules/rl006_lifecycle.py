"""RL006 — resource lifecycle: owners of OS-backed resources close them.

**Invariant (PRs 3/6/8).** Shared-memory segments, worker pools and
executors outlive the Python objects that reference them: a leaked
``multiprocessing.shared_memory.SharedMemory`` segment persists in
``/dev/shm`` after the process dies, an unclosed ``WorkerPool`` orphans
child processes (the PR 6 bugfix sweep), and an unclosed executor leaks
threads.  The codebase's discipline is explicit ownership:

* a **class** that stores such a resource on ``self`` must define a
  teardown method (``close``/``stop``/``shutdown``/``__exit__``) — and the
  pool additionally registers finalizers for SIGKILL'd-owner cleanup;
* a **call site** that creates one must either use it as a context
  manager, call its teardown in the same scope (``try/finally``, pytest
  fixture teardown after ``yield``), hand it to a tracked-lifetime seam
  (``track_resource``, ``weakref.finalize``, ``contextlib.closing``,
  ``ExitStack``), store it on ``self`` (ownership moves to the class), or
  return/yield it (ownership moves to the caller).

**What the rule does.** Flags (a) classes assigning a known resource
constructor to an attribute without any teardown method, and (b) function
scopes that construct a resource and do none of the above with it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules.base import FileIndex, Rule, Scope, dotted_name, self_attr

#: Constructors whose results own an OS-backed resource.
RESOURCE_CONSTRUCTORS = frozenset(
    {
        "SharedMemory",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "WorkerPool",
    }
)

#: Methods that count as a teardown definition on an owning class.
_TEARDOWN_METHODS = frozenset({"close", "stop", "shutdown", "__exit__"})

#: Attribute calls on the bound name that count as releasing it.
_RELEASING_CALLS = frozenset(
    {"close", "stop", "shutdown", "unlink", "terminate", "join"}
)

#: Callee names that take over the resource's lifetime.
_TRACKING_CALLEES = (
    "track_resource",
    "finalize",
    "addfinalizer",
    "closing",
    "enter_context",
    "callback",
    "register",
    "push",
)


def _ctor_name(call: ast.Call) -> str | None:
    name = dotted_name(call.func)
    if name is None:
        return None
    last = name.split(".")[-1]
    return last if last in RESOURCE_CONSTRUCTORS else None


class ResourceLifecycleRule(Rule):
    rule_id = "RL006"
    title = "resource lifecycle: OS-backed resource created without a release path"
    severity = "error"
    hint = (
        "Use the resource as a context manager, close it in a try/finally "
        "(or after a fixture's yield), register it with track_resource/"
        "weakref.finalize/contextlib.closing, or store it on self in a class "
        "that defines close()/stop()."
    )

    def check_file(self, ctx, project) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        index = ctx.index
        # (a) classes owning resources must define a teardown method.
        yield from self._check_classes(ctx, index)
        # (b) call-site ownership in every function/module scope.
        for scope in index.scopes:
            calls = [call for call in scope.nodes(ast.Call) if _ctor_name(call)]
            if calls:
                yield from self._check_scope(ctx, index, scope, calls)

    def _check_classes(self, ctx, index: FileIndex) -> Iterable[Finding]:
        # Per class, the first `self.X = <resource>()` of its first method
        # that has one (``ast.walk`` order within the method).
        first: dict[ast.ClassDef, tuple[int, ast.Assign]] = {}
        for node in index.nodes(ast.Assign):
            if not (isinstance(node.value, ast.Call) and _ctor_name(node.value)):
                continue
            if not any(self_attr(target) for target in node.targets):
                continue
            for cls, method in index.method_owners(node):
                position = cls.body.index(method)
                if cls not in first or position < first[cls][0]:
                    first[cls] = (position, node)
        for cls in index.nodes(ast.ClassDef):
            if cls not in first or any(
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name in _TEARDOWN_METHODS
                for stmt in cls.body
            ):
                continue
            node = first[cls][1]
            yield self.finding(
                ctx,
                node,
                f"{cls.name} stores a {_ctor_name(node.value)} on self but defines "
                "no close()/stop()/shutdown()/__exit__ teardown",
            )

    def _check_scope(
        self, ctx, index: FileIndex, scope: Scope, calls: list[ast.Call]
    ) -> Iterable[Finding]:
        handled: set[int] = set()  # creations managed by a with or handed over
        let_go: set[str] = set()  # names released, handed over or returned
        for node in scope.nodes(ast.With) + scope.nodes(ast.AsyncWith):
            for item in node.items:
                expr = item.context_expr
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Call) and _ctor_name(sub):
                        handled.add(id(sub))
                if isinstance(expr, ast.Name):
                    let_go.add(expr.id)  # `with pool:` on an existing name
                elif isinstance(expr, ast.Call):
                    # closing(pool), ExitStack().enter_context(pool)
                    let_go.update(a.id for a in expr.args if isinstance(a, ast.Name))
        for node in scope.nodes(ast.Call):
            func = node.func
            last = (dotted_name(func) or "").split(".")[-1]
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if last in _RELEASING_CALLS:
                    let_go.add(func.value.id)
            if last in _TRACKING_CALLEES:
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name):
                            let_go.add(sub.id)
                        elif isinstance(sub, ast.Call) and _ctor_name(sub):
                            handled.add(id(sub))  # lifetime handed over
        for node in scope.nodes(ast.Return) + scope.nodes(ast.Expr):
            value = node.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                value = value.value
            elements = value.elts if isinstance(value, ast.Tuple) else [value]
            let_go.update(e.id for e in elements if isinstance(e, ast.Name))

        for call in calls:
            if id(call) in handled:
                continue
            parent = index.parents[call]
            if isinstance(parent, ast.Assign) and parent.value is call:
                if any(isinstance(t, ast.Attribute) for t in parent.targets):
                    continue  # class ownership: the class-level check governs
                names = [t.id for t in parent.targets if isinstance(t, ast.Name)]
                if names and names[-1] in let_go:
                    continue
            elif isinstance(parent, ast.keyword) or (
                isinstance(parent, ast.Call) and call in parent.args
            ):
                continue  # ownership passed to the callee
            yield self.finding(
                ctx,
                call,
                f"{_ctor_name(call)} created in {scope.name}() with no release path "
                "(no with/close/track_resource/finalize, not returned)",
            )
