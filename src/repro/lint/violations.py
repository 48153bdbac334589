"""Violation and autofix records produced by the analyzer.

:class:`Edit` and :class:`Fix` are plain data on purpose: a fix is a
*description* of a mechanically safe text change, not code that
performs it — the application engine (:mod:`repro.lint.fix`) stays in
one place, fixes round-trip through the JSON result cache, and the
SARIF reporter can translate them into ``fixes`` objects for editors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class Edit:
    """One contiguous text replacement.

    Positions follow the AST convention: 1-based lines, 0-based
    columns.  A zero-width span (``start == end``) is an insertion;
    an empty ``text`` over a non-empty span is a deletion.
    """

    line: int
    col: int
    end_line: int
    end_col: int
    text: str

    def to_dict(self) -> dict:
        return {
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "end_col": self.end_col,
            "text": self.text,
        }

    @staticmethod
    def from_dict(data: dict) -> "Edit":
        return Edit(line=data["line"], col=data["col"],
                    end_line=data["end_line"], end_col=data["end_col"],
                    text=data["text"])


@dataclass(frozen=True)
class Fix:
    """A mechanically safe repair: one or more edits in one file."""

    description: str
    edits: Tuple[Edit, ...]

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "edits": [edit.to_dict() for edit in self.edits],
        }

    @staticmethod
    def from_dict(data: dict) -> "Fix":
        return Fix(description=data["description"],
                   edits=tuple(Edit.from_dict(e) for e in data["edits"]))


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at one source location.

    Ordering is (path, line, col, rule_id) so reports are stable
    regardless of checker execution order — the analyzer itself must
    honor the determinism discipline it enforces.  The optional
    ``fix`` rides along without participating in identity: two runs
    that disagree only about fixability still compare and dedupe the
    same way.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    fix: Optional[Fix] = field(default=None, compare=False)

    def format(self) -> str:
        suffix = " [fixable]" if self.fix is not None else ""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}{suffix}")

    def to_dict(self) -> dict:
        data = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }
        if self.fix is not None:
            data["fix"] = self.fix.to_dict()
        return data

    @staticmethod
    def from_dict(data: dict) -> "Violation":
        fix = data.get("fix")
        return Violation(
            path=data["path"],
            line=data["line"],
            col=data["col"],
            rule_id=data["rule"],
            message=data["message"],
            fix=Fix.from_dict(fix) if fix is not None else None,
        )
