"""repro.lint — AST-based invariant analyzer for the AutoComp reproduction.

The reproduction's safety story (no double-compaction, no torn durable
state, byte-identical replay — the properties §4/§7 of the paper's
production deployment depend on) was built across PRs 3–9 as *coding
conventions*: lock-sweep discipline in the caches and telemetry sink,
tmp+``os.replace`` atomicity for control-plane files, versioned picklable
worker contracts, the ``repro.obs.METRICS`` registry, RNG-free replay
paths, and explicit resource ownership.  This package turns those
conventions into machine-checked invariants gating CI.

Rules (stable ids; see each ``repro.lint.rules.rlXXX_*`` module for the
invariant-to-PR mapping):

======  =====================================================================
RL000   file does not parse (analyzer prerequisite)
RL001   lock discipline — lock-guarded attributes accessed without the lock
RL002   atomic-write discipline — durable state written non-atomically
RL003   contract drift — worker wire contract changed without a version bump
RL004   metrics registry — unregistered emissions / dead registry entries
RL005   replay determinism — ambient time/randomness on a replay path
RL006   resource lifecycle — OS-backed resource without a release path
RL007   unused suppression — a ``disable=`` directive matched no finding
======  =====================================================================

Usage::

    PYTHONPATH=src python -m repro.lint src tests benchmarks examples
    PYTHONPATH=src python -m repro.lint --format json --fix-hints src
    PYTHONPATH=src python -m repro.lint --emit-contracts   # RL003 manifest

Accepted exceptions are suppressed inline with a justifying comment::

    candidate = self._candidates[index]  # repro-lint: disable=RL001 -- shards own disjoint slices

and every suppression is itself checked: a directive that no longer
matches a finding is reported as RL007 so the exception list cannot rot.
"""

from __future__ import annotations

from repro.lint.findings import Finding, sort_findings
from repro.lint.rules import RULE_CLASSES, Rule, all_rules
from repro.lint.runner import FileContext, ProjectContext, discover_files, run_lint
from repro.lint.suppressions import UNUSED_SUPPRESSION_ID, parse_suppressions

__all__ = [
    "RULE_CLASSES",
    "UNUSED_SUPPRESSION_ID",
    "FileContext",
    "Finding",
    "ProjectContext",
    "Rule",
    "all_rules",
    "discover_files",
    "parse_suppressions",
    "run_lint",
    "sort_findings",
]
