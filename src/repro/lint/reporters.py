"""Text, JSON and SARIF reporters for lint results."""

from __future__ import annotations

import json
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Sequence

from repro.lint.registry import all_rules
from repro.lint.violations import Violation

#: Version of the JSON report schema; bump on breaking shape changes.
JSON_SCHEMA_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

#: Rules emitted by the driver rather than a registered checker.
_DRIVER_RULES: Dict[str, tuple] = {
    "E999": ("syntax-error", "file does not parse"),
    "W001": ("unused-suppression",
             "disable directive matches no violation or names "
             "no registered rule"),
}


def format_text(violations: Sequence[Violation], files_checked: int) -> str:
    """GCC-style ``path:line:col: RULE message`` lines plus a summary."""
    lines: List[str] = [violation.format() for violation in violations]
    noun = "file" if files_checked == 1 else "files"
    if violations:
        count = len(violations)
        noun_v = "violation" if count == 1 else "violations"
        lines.append(f"{count} {noun_v} in {files_checked} {noun} checked")
    else:
        lines.append(f"clean: 0 violations in {files_checked} {noun} checked")
    return "\n".join(lines)


def format_json(violations: Sequence[Violation], files_checked: int) -> str:
    """Machine-readable report (stable key order, sorted violations)."""
    by_rule: dict = {}
    for violation in violations:
        by_rule[violation.rule_id] = by_rule.get(violation.rule_id, 0) + 1
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": files_checked,
        "violations": [violation.to_dict() for violation in violations],
        "summary": {
            "total": len(violations),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def format_sarif(violations: Sequence[Violation],
                 files_checked: int,
                 extra_rules: Optional[Dict[str, tuple]] = None,
                 tool_name: str = "repro.lint") -> str:
    """SARIF 2.1.0 report — what CI uploads for inline PR annotation.

    Deterministic: rules sorted by id, results in violation order,
    keys sorted, paths posix-normalized.  ``extra_rules`` maps rule
    ids to ``(name, shortDescription)`` for rules that live outside
    the lint registry — the dynamic S9xx sanitizer rules report
    through the same SARIF surface with their own ``tool_name``.
    """
    from repro.lint.analyzer import ANALYZER_VERSION

    rule_ids = sorted({violation.rule_id for violation in violations})
    rules = []
    registry = all_rules()
    for rule_id in rule_ids:
        if extra_rules is not None and rule_id in extra_rules:
            name, text = extra_rules[rule_id]
        elif rule_id in registry:
            checker = registry[rule_id]
            name, text = checker.rule_name, checker.rationale
        else:
            name, text = _DRIVER_RULES.get(rule_id, (rule_id, rule_id))
        rules.append({
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": text},
        })

    results = []
    for violation in violations:
        result = {
            "ruleId": violation.rule_id,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": PurePosixPath(violation.path).as_posix(),
                    },
                    "region": {
                        "startLine": violation.line,
                        "startColumn": violation.col + 1,
                    },
                },
            }],
        }
        if violation.fix is not None:
            result["fixes"] = [_sarif_fix(violation)]
        results.append(result)

    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": tool_name,
                    "version": ANALYZER_VERSION,
                    "rules": rules,
                },
            },
            "results": results,
            "properties": {"filesChecked": files_checked},
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_fix(violation: Violation) -> dict:
    """SARIF 2.1.0 ``fix`` object: one artifactChange per violation."""
    replacements = []
    for edit in violation.fix.edits:
        replacements.append({
            "deletedRegion": {
                "startLine": edit.line,
                "startColumn": edit.col + 1,
                "endLine": edit.end_line,
                "endColumn": edit.end_col + 1,
            },
            "insertedContent": {"text": edit.text},
        })
    return {
        "description": {"text": violation.fix.description},
        "artifactChanges": [{
            "artifactLocation": {
                "uri": PurePosixPath(violation.path).as_posix(),
            },
            "replacements": replacements,
        }],
    }


def format_rule_listing() -> str:
    """Human-readable table of every registered rule."""
    lines: List[str] = []
    for rule_id, checker in all_rules().items():
        lines.append(f"{rule_id}  {checker.rule_name}")
        lines.append(f"      {checker.rationale}")
    return "\n".join(lines)
