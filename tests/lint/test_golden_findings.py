"""Golden findings: every rule's output on a frozen corpus stays the same.

``tests/lint/corpus/rlXXX_*.py`` each hold a ``FILES`` dict mapping a
relative path to the text of one fixture file.  The snippets break the
rules on purpose, so they are kept as string literals: the repository
sweep reads them as data and stays clean.  The test writes them out under
a scratch directory, with the path shapes the rules' ``applies_to``
filters expect (``repro/replay/`` for RL005, a ``repro/``-rooted product
path for RL002's append check and RL004), runs every rule with no
suppression applied, and compares ``(rule_id, severity, path, line, col,
message, hint)`` of each finding with ``corpus/findings.json``.

After a deliberate change to what a rule reports, regenerate the file
with ``PYTHONPATH=src python tests/lint/test_golden_findings.py`` and
review the diff.
"""

from __future__ import annotations

import json
import os
import runpy
import sys
from pathlib import Path

from repro.lint import ProjectContext, all_rules, discover_files, sort_findings

CORPUS = Path(__file__).resolve().parent / "corpus"
GOLDEN = CORPUS / "findings.json"


def corpus_files() -> dict[str, str]:
    """Relative path → text of every corpus fixture file."""
    files: dict[str, str] = {}
    for module in sorted(CORPUS.glob("rl*.py")):
        files.update(runpy.run_path(str(module))["FILES"])
    return files


def raw_findings(paths, **project_options):
    """Every rule's findings over ``paths``, sorted, no suppression applied."""
    files = discover_files(paths)
    for ctx in files:
        ctx.load()
    project = ProjectContext(files, **project_options)
    rules = all_rules()
    found = []
    for ctx in files:
        for rule in rules:
            if ctx.tree is not None and rule.applies_to(ctx):
                found.extend(rule.check_file(ctx, project))
    for rule in rules:
        found.extend(rule.finalize(project))
    return sort_findings(found)


def corpus_findings(root: Path) -> list[dict]:
    """Write the corpus under ``root`` and lint it from there."""
    for relpath, text in corpus_files().items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        findings = raw_findings(
            ["corpus"],
            contracts_manifest="corpus/contracts.json",
            metrics_registry_path="corpus/repro/obs/__init__.py",
        )
    finally:
        os.chdir(cwd)
    return [finding.to_dict(include_hint=True) for finding in findings]


def test_corpus_findings_match_the_golden_file(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert corpus_findings(tmp_path) == expected


def test_corpus_has_a_positive_case_for_every_rule():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reported = {finding["rule_id"] for finding in expected}
    assert reported == {rule.rule_id for rule in all_rules()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        payload = corpus_findings(Path(scratch))
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(payload)} findings to {GOLDEN}", file=sys.stderr)
