"""Violation records produced by the analyzer."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at one source location.

    Ordering is (path, line, col, rule_id) so reports are stable
    regardless of checker execution order — the analyzer itself must
    honor the determinism discipline it enforces.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }

    @staticmethod
    def from_dict(data: dict) -> "Violation":
        return Violation(
            path=data["path"],
            line=data["line"],
            col=data["col"],
            rule_id=data["rule"],
            message=data["message"],
        )
