"""Inline suppression comments for ``repro.lint``.

Two directive forms, parsed from real comment tokens (string literals that
merely *look* like directives are ignored):

* ``# repro-lint: disable=RL001`` — suppresses the named rule(s) for
  findings anchored on the **same physical line** (the first line of a
  multi-line statement).  Several ids separate with commas:
  ``disable=RL001,RL005``.  Justification text after the ids is
  encouraged: ``# repro-lint: disable=RL001 -- disjoint shard slices``.
* ``# repro-lint: file-disable=RL004`` — suppresses the rule(s) for the
  whole file.  Must be the only code on its line (a comment-only line).

Every directive is tracked: a directive that suppresses nothing is itself
reported by the runner as :data:`UNUSED_SUPPRESSION_ID` (``RL007``), so
stale exceptions cannot accumulate silently.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

#: Rule id reserved for the unused-suppression check (see runner).
UNUSED_SUPPRESSION_ID = "RL007"

_DIRECTIVE_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>file-)?disable=(?P<ids>RL\d{3}(?:\s*,\s*RL\d{3})*)"
)


@dataclass
class Directive:
    """One parsed suppression comment."""

    line: int
    rule_ids: tuple[str, ...]
    file_wide: bool
    used: set = field(default_factory=set)  # rule ids that actually matched

    def unused_ids(self) -> tuple[str, ...]:
        return tuple(rid for rid in self.rule_ids if rid not in self.used)


@dataclass
class FileSuppressions:
    """All suppression directives of one file, with usage tracking."""

    directives: list[Directive] = field(default_factory=list)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True (and marks the directive used) if ``rule_id@line`` is covered."""
        hit = False
        for directive in self.directives:
            if rule_id not in directive.rule_ids:
                continue
            if directive.file_wide or directive.line == line:
                directive.used.add(rule_id)
                hit = True
        return hit

    def unused(self) -> list[tuple[int, str]]:
        """``(line, rule_id)`` pairs for directive ids that matched nothing."""
        out = []
        for directive in self.directives:
            for rid in directive.unused_ids():
                out.append((directive.line, rid))
        return out


def parse_suppressions(source: str) -> FileSuppressions:
    """Extract suppression directives from ``source``'s comment tokens."""
    suppressions = FileSuppressions()
    if "repro-lint:" not in source:
        return suppressions  # no directive can match: skip the tokenizer
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions  # unparseable files get their own RL000 finding
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE_RE.search(token.string)
        if not match:
            continue
        ids = tuple(
            part.strip() for part in match.group("ids").split(",") if part.strip()
        )
        suppressions.directives.append(
            Directive(
                line=token.start[0],
                rule_ids=ids,
                file_wide=match.group("scope") == "file-",
            )
        )
    return suppressions
