"""Self-check: the analyzer holds over its own repository.

The acceptance gate for the lint plane: ``python -m repro.lint src`` (and
the full src+tests+benchmarks sweep CI runs) reports zero unsuppressed
findings, the CLI plumbs exit codes and JSON correctly, and the rule
registry stays complete.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import RULE_CLASSES, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_registry_has_the_six_invariant_rules():
    assert [cls.rule_id for cls in RULE_CLASSES] == [
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
    ]
    severities = {cls.severity for cls in RULE_CLASSES}
    assert severities == {"error"}


@pytest.fixture(scope="module")
def full_sweep():
    """The findings of one src+tests+benchmarks sweep, shared by the clean checks."""
    findings, _ = run_lint(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    )
    return findings


def test_src_tree_is_clean(full_sweep):
    src = (REPO_ROOT / "src").as_posix() + "/"
    findings = [f for f in full_sweep if f.path.startswith(src)]
    assert findings == [], [f.render() for f in findings]


def test_full_sweep_is_clean(full_sweep):
    assert full_sweep == [], [f.render() for f in full_sweep]


def test_cli_exits_zero_on_src():
    result = _run_cli("src")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_json_report_shape(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import json\n\n"
        "def save(state):\n"
        '    with open("active.json", "w") as stream:\n'
        "        json.dump(state, stream)\n",
        encoding="utf-8",
    )
    result = _run_cli("--format", "json", "--fix-hints", str(bad))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["tool"] == "repro.lint"
    assert payload["summary"]["errors"] == 1
    (finding,) = payload["findings"]
    assert finding["rule_id"] == "RL002"
    assert finding["hint"]  # --fix-hints includes remediation text


def test_cli_list_rules_mentions_every_id():
    result = _run_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007"):
        assert rule_id in result.stdout
