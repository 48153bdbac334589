"""``# repro-lint: disable=RULE`` suppression comments.

Two scopes, distinguished by comment placement:

* **Line** — a trailing comment on a line of code suppresses the listed
  rules for violations reported on that physical line::

      if rate == 0.0:  # repro-lint: disable=F301

* **File** — a comment on a line of its own suppresses the listed rules
  for the whole file (the "per-file" escape hatch for modules with a
  documented reason to break a rule)::

      # repro-lint: disable=D102

``disable=all`` suppresses every rule in the given scope.  Rule lists
are comma-separated: ``disable=U001,F301``.  The analyzer reports a
directive naming an id that is not a registered rule as ``W001``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_*]+(?:\s*,\s*[A-Za-z0-9_*]+)*)"
)

ALL = "all"


@dataclass
class SuppressionIndex:
    """Parsed suppression directives for one source file."""

    #: File-scoped directives by the line they are written on.
    file_lines: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    line_rules: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        file_lines: Dict[int, Set[str]] = {}
        line_rules: Dict[int, Set[str]] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _DIRECTIVE.search(token.string)
                if not match:
                    continue
                rules = {part.strip() for part in match.group(1).split(",")}
                line_no = token.start[0]
                if token.line[:token.start[1]].strip():
                    line_rules.setdefault(line_no, set()).update(rules)
                else:
                    file_lines.setdefault(line_no, set()).update(rules)
        except tokenize.TokenizeError:
            pass  # unparseable files produce a syntax-error violation anyway
        return cls(
            file_lines={line: frozenset(rules)
                        for line, rules in file_lines.items()},
            line_rules={line: frozenset(rules)
                        for line, rules in line_rules.items()},
        )

    @property
    def file_rules(self) -> FrozenSet[str]:
        """Every rule suppressed for the whole file."""
        return frozenset().union(*self.file_lines.values())

    def suppresses(self, rule_id: str, line: int) -> bool:
        if ALL in self.file_rules or rule_id in self.file_rules:
            return True
        rules = self.line_rules.get(line, frozenset())
        return ALL in rules or rule_id in rules
