"""Public reach: every public ``src/`` symbol has a caller outside ``tests/``.

A public top-level function or class, or a public method of a top-level
class, counts as reached when its name appears as a token somewhere in
``src/`` other than its own definition (comments and docstrings count,
so the check errs towards keeping a symbol), or anywhere in
``benchmarks/`` or ``examples/``.  Package ``__init__`` modules count
only outside their imports and ``__all__``: a re-export is not a use,
but a registry there is (the lint rules are reached through
``repro.lint.rules.RULE_CLASSES``).

A symbol nothing else reaches is API that only its own tests exercise.
Delete it with those tests, or add it to :data:`ALLOWLIST` with the
reason it stays.  The scan counts each tree's tokens once, so the whole
check takes well under a second.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Trees whose uses count as reach (besides ``src/`` itself).
CALLER_TREES = ("benchmarks", "examples")

TOKEN = re.compile(r"[A-Za-z_]\w*")
DEFINITION = re.compile(r"\b(?:def|class)\s+([A-Za-z_]\w*)")
#: A top-level or one-level-indented ``def``/``class``, or any other
#: top-level statement (which ends the class body before it).
SYMBOL = re.compile(
    r"^(?P<indent> {4})?(?:async\s+)?(?P<kind>def|class)\s+(?P<name>[A-Za-z_]\w*)"
    r"|^[^\s#@)\]}]",
    re.M,
)

#: Qualified name → why the symbol stays although only tests reach it.
ALLOWLIST = {
    "LstConnector.snapshot_candidate": (
        "the only way to build §4.1's snapshot-scope candidate; removing that "
        "scope changes CandidateKey, which the worker transport carries"
    ),
    "ResumableStateMachine.state_of": (
        "the only per-unit view of the durable backfill state; the restart and "
        "recovery tests check each unit's state through it"
    ),
    "CatalogHistoryRing.n_segments": (
        "the only public size of the self-evaluation ring; the eviction, "
        "sealing and spill tests count its segments through it"
    ),
    "NameNode.directory_count": (
        "the only public count of the implicit directories an HDFS quota "
        "charges; the accounting and quota-rollback tests read it"
    ),
    "FileInfo.block_count": (
        "the HDFS block-map figure FileInfo.block_size exists for; dropping "
        "that field changes the record every create builds on the ingest path"
    ),
}


def _public_symbols(text: str):
    """``(offset, qualified name, name)`` of each public top-level def or
    class and each public method of a public top-level class."""
    owner = None  # the public top-level class whose body the scan is in
    for match in SYMBOL.finditer(text):
        name = match["name"]
        if name is None:
            owner = None
        elif match["indent"] is None:
            public = not name.startswith("_")
            owner = name if public and match["kind"] == "class" else None
            if public:
                yield match.start(), name, name
        elif owner is not None and match["kind"] == "def" and not name.startswith("_"):
            yield match.start(), f"{owner}.{name}", name


def _init_uses(text: str) -> list[str]:
    """Tokens of a package ``__init__`` outside its imports and ``__all__``."""
    tokens: list[str] = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            continue
        tokens += TOKEN.findall(ast.get_source_segment(text, node) or "")
    return tokens


@functools.lru_cache(maxsize=None)
def scan() -> tuple[tuple[str, int, str], ...]:
    """``(path, line, qualified name)`` of every public symbol nothing reaches."""
    uses: Counter[str] = Counter()
    definitions: Counter[str] = Counter()
    symbols = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "__init__.py":
            uses.update(_init_uses(text))
            continue
        uses.update(TOKEN.findall(text))
        definitions.update(DEFINITION.findall(text))
        symbols += [(path, text, *symbol) for symbol in _public_symbols(text)]
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            uses.update(TOKEN.findall(path.read_text(encoding="utf-8")))
    return tuple(
        (path.relative_to(ROOT).as_posix(), text.count("\n", 0, offset) + 1, qualname)
        for path, text, offset, qualname, name in symbols
        if uses[name] <= definitions[name]
    )


def test_every_public_symbol_has_a_caller_outside_tests():
    unreached = [hit for hit in scan() if hit[2] not in ALLOWLIST]
    assert not unreached, (
        "public symbols that only tests reach; delete them with their tests, "
        "or allowlist them with a reason:\n"
        + "\n".join(f"  {path}:{line} {qualname}" for path, line, qualname in unreached)
    )


def test_allowlist_names_only_live_hits_with_reasons():
    hits = {qualname for _, _, qualname in scan()}
    assert sorted(set(ALLOWLIST) - hits) == [], "allowlisted symbols that now have callers"
    assert all(reason.strip() for reason in ALLOWLIST.values())
