"""Inline suppression comments: ``# repro: noqa[RULE1,RULE2]``.

A finding is suppressed when the line it is reported on carries a
matching suppression comment. Two forms exist:

* ``# repro: noqa`` — suppress every rule on that line (blanket form;
  prefer the targeted form so the suppression documents *which*
  invariant is being waived).
* ``# repro: noqa[CP003]`` / ``# repro: noqa[CP003,NUM001]`` — suppress
  only the listed rules.

Suppressions are read from the module's one comment table
(:attr:`ModuleSource.comments <repro.analysis.context.ModuleSource
.comments>`), so mentions inside strings and docstrings are ignored.
Any bracket body is parsed: an empty list (``noqa[]``) or a token that
is not a known rule id (``noqa[NUM-002]``, ``noqa[NUM002;CP003]``) is
reported by the runner as a ``NOQA`` finding, and only the valid ids
listed are suppressed — a malformed targeted suppression never widens
into a blanket one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.analysis.context import CommentTokens

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[^\]]*)\]?)?")


@dataclass(frozen=True)
class Suppressions:
    """Per-file suppression table built from the comment table.

    Attributes:
        blanket_lines: Lines carrying a bare ``# repro: noqa``.
        rule_lines: Line -> set of rule ids suppressed on that line.
        errors: (line, message) pairs for malformed suppressions,
            reported by the runner as ``NOQA`` findings.
    """

    blanket_lines: set[int] = field(default_factory=set)
    rule_lines: dict[int, set[str]] = field(default_factory=dict)
    errors: list[tuple[int, str]] = field(default_factory=list)

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Whether ``rule`` is suppressed on 1-based ``line``."""
        if line in self.blanket_lines:
            return True
        return rule in self.rule_lines.get(line, set())


def parse_suppressions(
    comments: CommentTokens, known_rules: frozenset[str]
) -> Suppressions:
    """Collect the suppression comments of one module.

    Args:
        comments: The module's ``(line, text)`` comment table.
        known_rules: Valid rule ids; anything else is recorded in
            :attr:`Suppressions.errors`.
    """
    table = Suppressions()
    for lineno, text in comments:
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        raw = match.group("rules")
        if raw is None:
            table.blanket_lines.add(lineno)
            continue
        rules = table.rule_lines.setdefault(lineno, set())
        tokens = [token.strip() for token in raw.split(",")]
        if not any(tokens):
            table.errors.append((
                lineno, "suppression names no rule ids: expected "
                        "'# repro: noqa[RULE, ...]'",
            ))
        for token in tokens:
            if not token:
                continue
            if token.upper() in known_rules:
                rules.add(token.upper())
            else:
                table.errors.append((
                    lineno, f"suppression names unknown rule {token!r}",
                ))
    return table
