"""RL003 — contract-version drift: picklable worker contracts vs manifest.

**Invariant (PRs 3/4/7/8).** The spec/result dataclasses that cross the
process-worker boundary (``ShardWorkSpec``, ``ShardCycleResult``,
``ShardDecideSpec``, ``ShardDecision``, ``CacheDelta`` and the columnar
payloads) form a *versioned* wire contract: ``WORK_SPEC_VERSION`` is the
single constant the ``WorkerPool.negotiate`` handshake compares, and every
structural change to those classes (field added/removed/retyped) must bump
it — otherwise a mixed-version pool after an upgrade unpickles garbage
instead of failing loudly.

**What the rule does.** ``src/repro/lint/contracts.json`` is a committed
manifest recording, per contract class, the hash of its ordered
``(field, annotation)`` list, plus the ``WORK_SPEC_VERSION`` it was
generated under.  The rule re-derives both from the scanned sources
(``workers.py`` / ``columnar.py`` ASTs — no imports) and flags:

* **drift** — a class's field hash differs from the manifest while the
  version constant still equals the manifest's: someone edited the
  contract without bumping ``WORK_SPEC_VERSION``;
* **stale manifest** — the version constant differs from the manifest's
  (a legitimate bump): regenerate with
  ``python -m repro.lint --emit-contracts`` so the next edit is checked
  against the new shape;
* classes added to / removed from :data:`CONTRACT_CLASSES`' modules
  without regeneration.

``--emit-contracts`` rewrites the manifest (atomically, naturally) from
the current tree; a regeneration on an unchanged tree is a no-op, which
``tests/lint`` asserts.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from pathlib import Path
from typing import Iterable

from repro import durable
from repro.lint.findings import Finding
from repro.lint.rules.base import Rule

#: Dataclasses that are part of the worker wire contract.
CONTRACT_CLASSES = frozenset(
    {
        "ShardWorkSpec",
        "ShardCycleResult",
        "ShardDecideSpec",
        "ShardDecision",
        "CacheDelta",
        "ColumnarMissBlock",
        "ColumnarHitPayload",
        "ColumnarResultPayload",
    }
)

#: Only these basenames are treated as contract sources, so test fixtures
#: defining same-named classes elsewhere cannot shadow the real contract.
CONTRACT_BASENAMES = frozenset({"workers.py", "columnar.py"})

#: The handshake version constant the manifest is pinned against.
VERSION_CONSTANT = "WORK_SPEC_VERSION"

#: Default manifest location (committed next to this module).
DEFAULT_MANIFEST = Path(__file__).resolve().parent.parent / "contracts.json"


def class_fields(cls: ast.ClassDef) -> list[list[str]]:
    """Ordered ``[name, annotation]`` pairs of a (data)class body."""
    fields: list[list[str]] = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation)
            fields.append([stmt.target.id, annotation])
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    fields.append([target.id, ""])
    return fields


def fields_hash(fields: list[list[str]]) -> str:
    """Stable digest of an ordered field list."""
    canonical = json.dumps(fields, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def extract_contracts(trees: Iterable[tuple[str, ast.AST]]) -> dict:
    """``{"version": int|None, "classes": {name: {...}}}`` from source ASTs."""
    version = None
    classes: dict[str, dict] = {}
    for norm, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == VERSION_CONSTANT
                        and isinstance(node.value, ast.Constant)
                    ):
                        version = node.value.value
            elif isinstance(node, ast.ClassDef) and node.name in CONTRACT_CLASSES:
                fields = class_fields(node)
                classes[node.name] = {
                    "fields": fields,
                    "hash": fields_hash(fields),
                    "line": node.lineno,
                    "path": norm,
                }
    return {"version": version, "classes": classes}


def manifest_payload(extracted: dict) -> dict:
    """The committed shape of the manifest (location details stripped)."""
    return {
        "comment": (
            "Generated by `python -m repro.lint --emit-contracts`. Field-list "
            "hashes of the picklable worker-contract dataclasses, pinned to "
            "WORK_SPEC_VERSION; RL003 fails when a contract class changes "
            "shape without a version bump."
        ),
        "version": extracted["version"],
        "classes": {
            name: {"fields": info["fields"], "hash": info["hash"]}
            for name, info in sorted(extracted["classes"].items())
        },
    }


def write_manifest(extracted: dict, path: str | os.PathLike) -> None:
    """Atomically write the manifest (tmp + os.replace, of course)."""
    payload = manifest_payload(extracted)
    durable.atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | os.PathLike) -> dict | None:
    try:
        with open(path, encoding="utf-8") as stream:
            return json.load(stream)
    except (OSError, json.JSONDecodeError):
        return None


class ContractDriftRule(Rule):
    rule_id = "RL003"
    title = "contract drift: worker wire contract changed without a version bump"
    severity = "error"
    hint = (
        "Structural edits to the worker contract dataclasses must bump "
        "WORK_SPEC_VERSION in repro/core/workers.py, then regenerate the "
        "manifest: PYTHONPATH=src python -m repro.lint --emit-contracts"
    )

    def __init__(self) -> None:
        self._sources: list[tuple[str, ast.AST]] = []
        self._version_site: tuple[str, int] | None = None

    def applies_to(self, ctx) -> bool:
        return os.path.basename(ctx.norm) in CONTRACT_BASENAMES

    def check_file(self, ctx, project) -> Iterable[Finding]:
        if ctx.tree is None:
            return ()
        self._sources.append((ctx.norm, ctx.tree))
        for node in ctx.index.nodes(ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == VERSION_CONSTANT
                for t in node.targets
            ):
                self._version_site = (ctx.norm, node.lineno)
        return ()

    def finalize(self, project) -> Iterable[Finding]:
        if not self._sources:
            return
        extracted = extract_contracts(self._sources)
        if not extracted["classes"]:
            return
        manifest = load_manifest(project.contracts_manifest)
        if manifest is None:
            site = self._version_site or (self._sources[0][0], 1)
            yield self.finding(
                site[0],
                site[1],
                f"contract manifest missing/unreadable at "
                f"{project.contracts_manifest}; generate it with "
                "--emit-contracts",
            )
            return
        current_version = extracted["version"]
        recorded_version = manifest.get("version")
        recorded_classes = manifest.get("classes", {})
        version_bumped = (
            current_version is not None and current_version != recorded_version
        )
        if version_bumped:
            site = self._version_site or (self._sources[0][0], 1)
            yield self.finding(
                site[0],
                site[1],
                f"{VERSION_CONSTANT} is {current_version} but the contract "
                f"manifest was generated under {recorded_version}; regenerate "
                "with --emit-contracts",
            )
            return  # per-class drift is expected mid-bump; manifest refresh covers it
        for name, info in sorted(extracted["classes"].items()):
            recorded = recorded_classes.get(name)
            if recorded is None:
                yield self.finding(
                    info["path"],
                    info["line"],
                    f"contract class {name} is not in the manifest; bump "
                    f"{VERSION_CONSTANT} and regenerate with --emit-contracts",
                )
            elif recorded.get("hash") != info["hash"]:
                yield self.finding(
                    info["path"],
                    info["line"],
                    f"contract class {name} changed shape (field-list hash "
                    f"{info['hash']} != manifest {recorded.get('hash')}) "
                    f"without bumping {VERSION_CONSTANT}",
                )
        scanned_basenames = {os.path.basename(norm) for norm, _ in self._sources}
        if not CONTRACT_BASENAMES <= scanned_basenames:
            return  # partial scan: absence just means the module wasn't linted
        scanned_names = set(extracted["classes"])
        for name in sorted(set(recorded_classes) - scanned_names):
            site = self._version_site or (self._sources[0][0], 1)
            yield self.finding(
                site[0],
                site[1],
                f"contract class {name} is in the manifest but absent from "
                f"the scanned contract modules; bump {VERSION_CONSTANT} and "
                "regenerate with --emit-contracts",
            )
