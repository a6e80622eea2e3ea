"""RL005 — replay determinism: no ambient entropy on replay-critical paths.

**Invariant (PRs 2/5).** Byte-identical replay is the Policy Lab's core
guarantee: ``TraceReplayer`` / ``CatalogReplayer`` re-execute a recorded
run and must produce bit-exact reports, and worker-side decide must return
the same selection the coordinator would have computed.  Those paths may
therefore consume time and randomness **only through injected seams** (the
simulation clock, recorded timestamps, seeded ``random.Random(seed)``
instances) — a single ``time.time()`` or bare ``random.random()`` call
silently breaks replay in a way no unit test of the happy path catches.

**What the rule does.** Inside the replay-critical modules
(``repro/replay/``, ``repro/catalog/serde.py`` and the worker decide path
``repro/core/workers.py``), it bans:

* wall-clock reads: ``time.time``/``time.time_ns``,
  ``datetime.now``/``utcnow``/``today``, ``date.today``
  (``time.perf_counter``/``monotonic`` stay allowed — they only feed
  telemetry wall-time measurements, never replayed state);
* ambient randomness: module-level ``random.*`` functions, unseeded
  ``random.Random()``, ``uuid.uuid1``/``uuid4``, ``os.urandom``,
  ``secrets.*``;
* set-ordering dependence: ``for … in <set literal / set(...)>`` — set
  iteration order depends on insertion and hash seed; sort first
  (``sorted(...)`` is the deterministic idiom).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, dotted_name

#: Module paths (posix substrings) where the rule is active.
REPLAY_PATHS = (
    "repro/replay/",
    "repro/catalog/serde.py",
    "repro/core/workers.py",
)

_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.now": "wall-clock read",
    "datetime.utcnow": "wall-clock read",
    "datetime.today": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "date.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "ambient randomness",
    "uuid.uuid1": "ambient randomness",
    "uuid.uuid4": "ambient randomness",
}

_RANDOM_MODULE_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "randbytes", "choice", "choices",
        "shuffle", "sample", "uniform", "triangular", "betavariate",
        "expovariate", "gammavariate", "gauss", "lognormvariate",
        "normalvariate", "vonmisesvariate", "paretovariate",
        "weibullvariate", "getrandbits", "seed",
    }
)


def _set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name == "set" or (name or "").endswith(".set"):
            return True
    return False


class ReplayDeterminismRule(Rule):
    rule_id = "RL005"
    title = "replay determinism: ambient time/randomness on a replay path"
    severity = "error"
    hint = (
        "Route time through the injected clock seam (the simulation clock or "
        "recorded trace timestamps) and randomness through a seeded "
        "random.Random(seed) carried by the replayer; iterate sets via "
        "sorted(...)."
    )

    def applies_to(self, ctx) -> bool:
        return any(fragment in ctx.norm for fragment in REPLAY_PATHS)

    def check_file(self, ctx, project) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        index = ctx.index
        for node in index.nodes(ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            reason = _BANNED_CALLS.get(name)
            if reason is None and name.startswith("secrets."):
                reason = "ambient randomness"
            if reason is None:
                parts = name.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "random"
                    and parts[1] in _RANDOM_MODULE_FUNCS
                ):
                    reason = "ambient randomness (module-level random)"
                elif name in {"random.Random", "Random"} and not (
                    node.args or node.keywords
                ):
                    reason = "unseeded random.Random()"
            if reason is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() on a replay-critical path ({reason}); "
                    "replay must be byte-identical",
                )
        loops = index.nodes(ast.For) + index.nodes(ast.AsyncFor)
        for node in loops + index.nodes(ast.comprehension):
            if _set_expr(node.iter):
                what = "comprehension over" if type(node) is ast.comprehension else "iterating"
                yield self.finding(
                    ctx,
                    node.iter,
                    f"{what} a set on a replay-critical path: set order is "
                    "insertion/hash dependent; wrap in sorted(...)",
                )
