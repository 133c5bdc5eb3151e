"""The ``keyed-by`` / ``key-exempt`` declaration grammar.

Two comment forms drive the cache-key soundness pass, mirroring the
``dim[...]`` and ``guarded-by[...]`` grammars of the earlier passes:

* ``# repro: keyed-by[name, other]`` — attached to a memoization site,
  asserts that the named values *are* part of the cache key even though
  the analysis cannot see the flow (e.g. the key is a content hash of a
  record that embeds them). KEY001/KEY002 treat the names as covered.
* ``# repro: key-exempt[name: reason]`` — attached to a memoization
  site *or* to a module-global definition, waives KEY/DET findings for
  that name. The reason is mandatory: an exemption without a written
  justification is exactly the silent staleness the pass exists to
  prevent, and is rejected as KEYNOTE.

Declarations are read from the module's one comment table
(:attr:`ModuleSource.comments <repro.analysis.context.ModuleSource
.comments>`), so strings that merely look like comments never match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.analysis.context import CommentTokens

_KEYED_BY_RE = re.compile(r"#\s*repro:\s*keyed-by\[(?P<body>[^\]]*)\]")
_KEY_EXEMPT_RE = re.compile(
    r"#\s*repro:\s*key-exempt\[(?P<body>[^\]]*)\]"
)
_LOOSE_RE = re.compile(r"#\s*repro:\s*(?P<form>keyed-by|key-exempt)\b")


@dataclass  # repro: noqa[SPEC001] -- mutable parse accumulator
class KeyComments:
    """Parsed key declarations of one module, by source line."""

    #: line -> names asserted to be covered by the key.
    keyed_by: dict[int, set[str]] = field(default_factory=dict)
    #: line -> name -> written reason for the exemption.
    exempt: dict[int, dict[str, str]] = field(default_factory=dict)
    #: (line, message) pairs for malformed declarations (KEYNOTE).
    errors: list[tuple[int, str]] = field(default_factory=list)

    def in_range(self, first: int, last: int) -> tuple[
        set[str], dict[str, str], set[int],
    ]:
        """Declarations attached to a statement spanning the lines.

        Returns ``(keyed_by names, exempt name->reason, claimed lines)``.
        """
        keyed: set[str] = set()
        exempt: dict[str, str] = {}
        claimed: set[int] = set()
        for line in range(first, last + 1):
            if line in self.keyed_by:
                keyed |= self.keyed_by[line]
                claimed.add(line)
            if line in self.exempt:
                exempt.update(self.exempt[line])
                claimed.add(line)
        return keyed, exempt, claimed


def parse_key_comments(comments: CommentTokens) -> KeyComments:
    """Collect every key declaration from a module's comment table."""
    out = KeyComments()
    for line, text in comments:
        matched = False
        keyed = _KEYED_BY_RE.search(text)
        if keyed is not None:
            matched = True
            names = [
                part.strip() for part in keyed.group("body").split(",")
            ]
            good: set[str] = set()
            for name in names:
                if name and name.replace("_", "a").isidentifier():
                    good.add(name)
                else:
                    out.errors.append((
                        line,
                        f"keyed-by name {name!r} is not an identifier",
                    ))
            if good:
                out.keyed_by.setdefault(line, set()).update(good)
        exempted = _KEY_EXEMPT_RE.search(text)
        if exempted is not None:
            matched = True
            body = exempted.group("body")
            name, sep, reason = body.partition(":")
            name = name.strip()
            reason = reason.strip()
            if not name or not name.replace("_", "a").isidentifier():
                out.errors.append((
                    line,
                    f"key-exempt name {name!r} is not an identifier",
                ))
            elif not sep or not reason:
                out.errors.append((
                    line,
                    f"key-exempt[{name}] carries no reason: expected "
                    "'# repro: key-exempt[name: reason]' — an exemption "
                    "must say why staleness is impossible",
                ))
            else:
                out.exempt.setdefault(line, {})[name] = reason
        if not matched:
            loose = _LOOSE_RE.search(text)
            if loose is not None:
                form = loose.group("form")
                out.errors.append((
                    line,
                    f"malformed {form} comment: expected "
                    f"'# repro: {form}[...]'",
                ))
    return out
