"""Reporter output contracts (text shape, JSON schema)."""

import json
from pathlib import Path

from repro.lint import format_json, format_rule_listing, format_text, lint_file
from repro.lint.reporters import JSON_SCHEMA_VERSION

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _sample_violations():
    return lint_file(FIXTURES / "d102_unseeded_random.py", select=["D102"])


def test_text_report_lines_and_summary():
    violations = _sample_violations()
    text = format_text(violations, files_checked=1)
    lines = text.splitlines()
    assert len(lines) == len(violations) + 1
    first = lines[0]
    assert first.endswith(violations[0].message)
    path, line, col = first.split(":")[:3]
    assert path.endswith("d102_unseeded_random.py")
    assert line.isdigit() and col.isdigit()
    assert lines[-1] == "3 violations in 1 file checked"


def test_text_report_clean():
    assert format_text([], files_checked=7) \
        == "clean: 0 violations in 7 files checked"


def test_json_report_schema():
    violations = _sample_violations()
    payload = json.loads(format_json(violations, files_checked=1))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["files_checked"] == 1
    assert payload["summary"]["total"] == len(violations)
    assert payload["summary"]["by_rule"] == {"D102": len(violations)}
    for entry in payload["violations"]:
        assert set(entry) == {"path", "line", "col", "rule", "message"}
        assert isinstance(entry["line"], int)
        assert isinstance(entry["col"], int)
        assert entry["rule"] == "D102"
        assert entry["message"]


def test_json_report_is_deterministic():
    violations = _sample_violations()
    assert format_json(violations, 1) == format_json(list(violations), 1)


def test_rule_listing_mentions_every_rule():
    from repro.lint import all_rules
    listing = format_rule_listing()
    for rule_id, checker in all_rules().items():
        assert rule_id in listing
        assert checker.rule_name in listing


def test_sarif_document_is_structurally_valid_2_1_0():
    from repro.lint.reporters import SARIF_SCHEMA, format_sarif

    violations = lint_file(FIXTURES / "d103_unordered_iteration.py",
                           select=["D103"])
    assert violations
    payload = json.loads(format_sarif(violations, files_checked=1))

    assert payload["$schema"] == SARIF_SCHEMA
    assert payload["version"] == "2.1.0"
    [run] = payload["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.lint" and driver["version"]
    declared = {rule["id"] for rule in driver["rules"]}
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]

    for result in run["results"]:
        assert result["ruleId"] in declared
        assert result["level"] == "error"
        assert result["message"]["text"]
        [location] = result["locations"]
        region = location["physicalLocation"]["region"]
        uri = location["physicalLocation"]["artifactLocation"]["uri"]
        assert "\\" not in uri  # posix-normalized
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
