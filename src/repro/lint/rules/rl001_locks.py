"""RL001 — lock discipline: guarded attributes stay under the lock.

**Invariant (PRs 1/4/7).** Classes that protect mutable state with an
instance lock (:class:`repro.core.statscache.IndexedCandidateCache`'s
counter lock, :class:`repro.simulation.telemetry.Telemetry`'s sink-wide
lock, ``LockManager._mutex``, the promoter's store mutex) must apply that lock
*consistently*: an attribute that is ever mutated inside a
``with self._lock:`` block is part of the lock's protected state, and
reading or writing it outside a lock block in the same class is a data
race — exactly the torn-counter bug class the stats-cache lock sweep
fixed.

**What the rule does.** Per class, it finds *lock attributes* (``self.X``
used as a ``with`` context whose name contains ``lock``/``mutex``, or
assigned a ``threading.Lock``/``RLock``), computes the *guarded set* (every
``self`` attribute mutated at least once while a lock is held), then flags
any access to a guarded attribute from code that provably does not hold
the lock.

Precision measures:

* ``__init__``-family methods are exempt — construction happens-before
  publication, so unlocked writes there are safe.
* A private helper (leading ``_``) whose every intra-class call site is
  safe — holds the lock, or is itself a safe/exempt method — is treated
  as safe (fixpoint).  This covers both the "called-under-lock" helper
  convention (``Tracer._collect``) and constructor-only helpers
  (``ResumableStateMachine._scan``).
* Code inside nested ``def``s runs later, so it never inherits the
  enclosing block's lock; *lambdas* DO inherit it — they are
  overwhelmingly immediately-consumed (``sort``/``min``/``max`` keys)
  rather than stored callbacks.

Deliberate lock-free fast paths (e.g. ``IndexedCandidateCache``'s
disjoint-slice slot access) are the intended use of inline suppressions —
each carries a justifying comment in this codebase.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, dotted_name, self_attr

_LOCK_NAME_RE = re.compile(r"lock|mutex", re.IGNORECASE)

#: Method names on a guarded attribute that mutate it in place.
_MUTATORS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert",
        "pop", "popitem", "popleft", "clear", "update", "setdefault",
        "add", "discard", "remove", "sort", "reverse",
    }
)

#: Methods whose unlocked access is safe by construction/convention:
#: object construction and (de)serialisation happen-before publication.
_EXEMPT_METHODS = frozenset(
    {
        "__init__", "__post_init__", "__new__", "__del__", "__repr__",
        "__getstate__", "__setstate__", "__reduce__", "__reduce_ex__",
        "__copy__", "__deepcopy__", "__init_subclass__",
    }
)


@dataclass
class _Access:
    """One ``self.X`` touch inside a method."""

    attr: str
    line: int
    col: int
    kind: str  # "read" | "mutate"
    locked: bool
    method: str


@dataclass
class _CallSite:
    """An intra-class ``self._helper()`` call, with lock state."""

    callee: str
    locked: bool
    caller: str


@dataclass
class _ClassScan:
    lock_attrs: set[str] = field(default_factory=set)
    accesses: list[_Access] = field(default_factory=list)
    calls: list[_CallSite] = field(default_factory=list)
    methods: set[str] = field(default_factory=set)
    locked_mutation_line: dict[str, int] = field(default_factory=dict)


class _MethodVisitor(ast.NodeVisitor):
    """Walks one method body tracking whether a class lock is held."""

    def __init__(self, scan: _ClassScan, method: str) -> None:
        self.scan = scan
        self.method = method
        self.locked = False

    # -- lock tracking ---------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        takes_lock = False
        for item in node.items:
            expr = item.context_expr
            attr = _lock_attr(expr)
            if attr is not None:
                self.scan.lock_attrs.add(attr)
                takes_lock = True
            else:
                self.visit(expr)
        was_locked = self.locked
        if takes_lock:
            self.locked = True
        for stmt in node.body:
            self.visit(stmt)
        self.locked = was_locked

    visit_AsyncWith = visit_With

    def _deferred(self, node: ast.AST) -> None:
        # A nested def body executes later: it does not inherit the lock
        # held at definition time.  (Lambdas are NOT routed here — sort/
        # min/max keys run inside the enclosing block.)
        was_locked = self.locked
        self.locked = False
        self.generic_visit(node)
        self.locked = was_locked

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._deferred(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._deferred(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes are analysed independently

    # -- accesses --------------------------------------------------------------

    def _record(self, attr: str, node: ast.AST, kind: str) -> None:
        if attr in self.scan.lock_attrs or _LOCK_NAME_RE.search(attr):
            return
        self.scan.accesses.append(
            _Access(attr, node.lineno, node.col_offset, kind, self.locked, self.method)
        )
        if kind == "mutate" and self.locked:
            self.scan.locked_mutation_line.setdefault(attr, node.lineno)

    def _record_target(self, target: ast.AST) -> bool:
        """Record a store/del target; True when it touched ``self``."""
        attr = self_attr(target)
        if attr is not None:
            self._record(attr, target, "mutate")
            return True
        if isinstance(target, ast.Subscript):
            attr = self_attr(target.value)
            if attr is not None:
                self._record(attr, target, "mutate")
                self.visit(target.slice)
                return True
        if isinstance(target, (ast.Tuple, ast.List)):
            handled = False
            for element in target.elts:
                handled = self._record_target(element) or handled
            return handled
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if not self._record_target(target):
                self.visit(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not self._record_target(node.target):
            self.visit(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            if not self._record_target(node.target):
                self.visit(node.target)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if not self._record_target(target):
                self.visit(target)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner_attr = self_attr(func.value)
            if owner_attr is not None and func.attr in _MUTATORS:
                # self.X.pop(...) mutates X in place.
                self._record(owner_attr, func.value, "mutate")
                for arg in node.args:
                    self.visit(arg)
                for kw in node.keywords:
                    self.visit(kw.value)
                return
            callee = self_attr(func)
            if callee is not None:
                self.scan.calls.append(_CallSite(callee, self.locked, self.method))
                for arg in node.args:
                    self.visit(arg)
                for kw in node.keywords:
                    self.visit(kw.value)
                return
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            self._record(attr, node, "read")
        self.generic_visit(node)


def _lock_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is ``self.X`` and ``X`` names a lock, else None."""
    attr = self_attr(node)
    return attr if attr is not None and _LOCK_NAME_RE.search(attr) else None


def _is_lock_factory(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func) or ""
    return name.split(".")[-1] in {"Lock", "RLock", "Condition", "Semaphore"}


class LockDisciplineRule(Rule):
    rule_id = "RL001"
    title = "lock discipline: lock-guarded attributes accessed without the lock"
    severity = "error"
    hint = (
        "Take the class lock around this access (`with self._lock:`), move it "
        "into a locked helper, or — for a deliberate lock-free fast path with "
        "a documented safety argument — suppress with "
        "`# repro-lint: disable=RL001 -- <why it is safe>`."
    )

    def check_file(self, ctx, project) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        index = ctx.index
        # Lock attrs pre-seeded from constructor assignments, so `self._mutex`
        # accesses are classified even before the first `with` is seen.
        seeded: dict[ast.ClassDef, set[str]] = {}
        for node in index.nodes(ast.Assign):
            if not _is_lock_factory(node.value):
                continue
            attrs = {self_attr(target) for target in node.targets} - {None}
            for cls, _ in index.method_owners(node) if attrs else ():
                seeded.setdefault(cls, set()).update(attrs)
        # Only a class with a seeded lock, or a `with self.<lock>:` in one of
        # its methods, can have guarded state: the others are not visited.
        locking = set(seeded)
        for node in index.nodes(ast.With) + index.nodes(ast.AsyncWith):
            if any(_lock_attr(item.context_expr) for item in node.items):
                locking.update(cls for cls, _ in index.method_owners(node))
        for cls in index.nodes(ast.ClassDef):
            if cls in locking:
                yield from self._check_class(ctx, cls, seeded.get(cls, set()))

    def _check_class(self, ctx, cls: ast.ClassDef, seeded: set[str]) -> Iterable[Finding]:
        scan = _ClassScan(lock_attrs=set(seeded))
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scan.methods.add(method.name)
            visitor = _MethodVisitor(scan, method.name)
            for stmt in method.body:
                visitor.visit(stmt)
        if not scan.lock_attrs:
            return
        guarded = {
            access.attr
            for access in scan.accesses
            if access.kind == "mutate"
            and access.locked
            and access.method not in _EXEMPT_METHODS
        } - scan.lock_attrs
        if not guarded:
            return

        # Fixpoint: a private helper is *safe* when every intra-class call
        # site either holds the lock or sits in a safe/exempt method —
        # covering both called-under-lock helpers and constructor-only
        # helpers (safe by happens-before-publication).
        sites: dict[str, list[_CallSite]] = {}
        for call in scan.calls:
            sites.setdefault(call.callee, []).append(call)
        safe_methods: set[str] = set(_EXEMPT_METHODS)
        changed = True
        while changed:
            changed = False
            for name in scan.methods:
                if name in safe_methods or not name.startswith("_"):
                    continue
                if name.startswith("__") and name.endswith("__"):
                    continue
                callsites = sites.get(name)
                if not callsites:
                    continue
                if all(s.locked or s.caller in safe_methods for s in callsites):
                    safe_methods.add(name)
                    changed = True

        for access in scan.accesses:
            if access.attr not in guarded:
                continue
            if access.locked or access.method in safe_methods:
                continue
            where = scan.locked_mutation_line.get(access.attr, cls.lineno)
            verb = "written" if access.kind == "mutate" else "read"
            yield self.finding(
                ctx,
                access.line,
                f"{cls.name}.{access.attr} is lock-guarded (mutated under the "
                f"lock at line {where}) but {verb} without the lock in "
                f"{access.method}()",
                col=access.col,
            )
