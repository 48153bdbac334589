"""``python -m repro lint`` CLI: dispatch, exit codes, formats."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import all_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC = str(REPO_ROOT / "src")


def test_clean_tree_exits_zero(capsys):
    assert main(["lint", SRC]) == 0
    assert "clean: 0 violations" in capsys.readouterr().out


def test_each_rule_fixture_exits_one(capsys):
    # Acceptance criterion: pointing the CLI at a fixture with a
    # planted violation exits 1, for every rule.  Whole-program rules
    # list every file their cross-module evidence needs.
    fixture_by_rule = {
        "U001": "u001_unit_suffix.py",
        "U002": "u002_float_time.py",
        "U003": "u003_frequency_math.py",
        "D101": "d101_wall_clock.py",
        "D102": "d102_unseeded_random.py",
        "D103": "d103_unordered_iteration.py",
        "D104": "d104_clock_import.py",
        "E201": "e201_loop_capture.py",
        "F301": "f301_float_equality.py",
        "P403": "p403_unordered_digest.py",
        "C502": "c502_repr_digest_input.py",
        "B801": ("accel_drift_pkg/__init__.py",
                 "accel_drift_pkg/pure.py",
                 "accel_drift_pkg/native_backend.py"),
        "B802": ("accel_drift_pkg/__init__.py",
                 "accel_drift_pkg/pure.py",
                 "accel_drift_pkg/native_backend.py"),
        "B803": ("accel_drift_pkg/__init__.py",
                 "accel_drift_pkg/pure.py",
                 "accel_drift_pkg/native_backend.py"),
        "B804": ("b804_consumer.py",
                 "accel_drift_pkg/__init__.py",
                 "accel_drift_pkg/pure.py",
                 "accel_drift_pkg/native_backend.py"),
    }
    assert set(fixture_by_rule) == set(all_rules())
    for rule_id, fixture in fixture_by_rule.items():
        names = (fixture,) if isinstance(fixture, str) else fixture
        paths = [str(FIXTURES / name) for name in names]
        assert main(["lint", *paths]) == 1
        assert rule_id in capsys.readouterr().out


def test_missing_path_exits_two(capsys):
    assert main(["lint", "no/such/path.py"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_unknown_rule_exits_two(capsys):
    assert main(["lint", SRC, "--select", "Z999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_select_limits_rules(capsys):
    fixture = str(FIXTURES / "d101_wall_clock.py")
    assert main(["lint", fixture, "--select", "U001"]) == 0
    assert main(["lint", fixture, "--select", "D101,U001"]) == 1
    out = capsys.readouterr().out
    assert "D101" in out


def test_json_format(capsys):
    fixture = str(FIXTURES / "f301_float_equality.py")
    assert main(["lint", fixture, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["by_rule"]["F301"] == 2


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out


def test_rule_catalog_matches_the_docs(capsys):
    # Checked both ways: a deleted rule cannot stay documented, and a
    # new rule cannot land undocumented.  The driver-emitted ids have
    # their own table and are not registered rules.
    assert main(["lint", "--list-rules"]) == 0
    listed = {line.split()[0]
              for line in capsys.readouterr().out.splitlines()
              if line and not line[0].isspace()}
    docs = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
    catalog = docs.split("\n## Rule catalog\n", 1)[1].split("\n## ", 1)[0]
    rules, driver = catalog.split("\n### Driver-emitted rules")
    row_ids = re.compile(r"^\| ([A-Z][0-9]{3}) \|", re.MULTILINE)
    assert set(row_ids.findall(rules)) == listed
    assert set(row_ids.findall(driver)) == {"E999", "W001"}


def test_directory_walk_skips_fixtures(capsys):
    # Linting the tests tree must not trip over the planted fixtures.
    tests_dir = str(Path(__file__).resolve().parent.parent)
    assert main(["lint", tests_dir]) == 0


def test_empty_directory_exits_two(tmp_path, capsys):
    # A path that yields no Python files is a usage error, not a
    # silent success.
    empty = tmp_path / "nothing_here"
    empty.mkdir()
    assert main(["lint", str(empty)]) == 2
    assert "no Python files found" in capsys.readouterr().err


def test_non_python_file_set_exits_two(tmp_path, capsys):
    data = tmp_path / "notes.txt"
    data.write_text("not python\n")
    assert main(["lint", str(tmp_path)]) == 2
    assert "no Python files found" in capsys.readouterr().err


def test_sarif_format_and_file(tmp_path, capsys):
    fixture = str(FIXTURES / "f301_float_equality.py")
    report = tmp_path / "lint.sarif"
    assert main(["lint", fixture, "--format", "sarif",
                 "--sarif", str(report)]) == 1
    stdout = capsys.readouterr().out
    payload = json.loads(stdout)
    assert payload["version"] == "2.1.0"
    results = payload["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"F301"}
    assert json.loads(report.read_text()) == payload


def test_unused_suppression_reported(capsys):
    fixture = str(FIXTURES / "w001_unused_suppression.py")
    assert main(["lint", fixture]) == 1
    out = capsys.readouterr().out
    assert "W001" in out
    assert "disable=D102" in out
    assert "D101" not in out  # the used suppression stays silent


@pytest.mark.parametrize("source,line", [
    ("x = 1  # repro-lint: disable=Z999\n", 1),
    ('"""Module."""\n# repro-lint: disable=D101,R701\n\nx = 1\n', 2),
], ids=["line", "file"])
def test_unknown_rule_suppression_reported(tmp_path, capsys, source, line):
    # An id that names no registered rule is reported whatever --select
    # is: it can never match, so it is a typo or a deleted rule's escape.
    target = tmp_path / "directive.py"
    target.write_text(source)
    for select in ([], ["--select", "U001"]):
        assert main(["lint", str(target), *select]) == 1
        out = capsys.readouterr().out
        assert f"directive.py:{line}:" in out
        assert "W001" in out and "unknown rule id" in out
