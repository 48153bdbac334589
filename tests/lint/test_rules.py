"""Per-rule fixture tests: each rule flags its planted violations and
honors line- and file-level suppressions."""

import shutil
from pathlib import Path

import pytest

from repro.lint import all_rules, lint_file, lint_files, lint_source

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# (fixture file, rule id, expected violation lines after suppression)
RULE_CASES = [
    ("u001_unit_suffix.py", "U001", [4, 4, 13, 18]),
    ("u002_float_time.py", "U002", [5, 6, 7]),
    ("u003_frequency_math.py", "U003", [5, 6]),
    ("d101_wall_clock.py", "D101", [8, 9]),
    ("d102_unseeded_random.py", "D102", [8, 9, 10]),
    ("d104_clock_import.py", "D104", [4, 5, 6]),
    ("d103_unordered_iteration.py", "D103", [5, 7, 8]),
    ("e201_loop_capture.py", "E201", [6]),
    ("f301_float_equality.py", "F301", [5, 7]),
    ("p403_unordered_digest.py", "P403", [8, 10]),
    ("c502_repr_digest_input.py", "C502", [7, 8]),
]

# Whole-program rules need the cross-module index, so their fixtures
# are packages linted together (exact sites are pinned down in
# test_project_rules.py).  Each still plants one extra seed under a
# trailing suppression directive: (sources, rule, count).
PROJECT_RULE_CASES = [
    (("accel_drift_pkg",), "B801", 3),
    (("accel_drift_pkg",), "B802", 1),
    (("accel_drift_pkg",), "B803", 1),
    (("accel_drift_pkg", "b804_consumer.py"), "B804", 2),
]


def _lint_tree(root, sources, rule_id, reveal=False):
    root.mkdir(parents=True, exist_ok=True)
    for name in sources:
        src = FIXTURES / name
        if src.is_dir():
            shutil.copytree(src, root / name)
        else:
            (root / name).write_text(src.read_text())
    if reveal:
        for path in root.rglob("*.py"):
            path.write_text(path.read_text().replace(
                "repro-lint: disable", "repro-lint-off"))
    return [v for v in lint_files(sorted(root.rglob("*.py")))
            if v.rule_id == rule_id]


@pytest.mark.parametrize("fixture,rule_id,lines",
                         RULE_CASES, ids=[c[1] for c in RULE_CASES])
def test_rule_flags_planted_violations(fixture, rule_id, lines):
    violations = lint_file(FIXTURES / fixture, select=[rule_id])
    assert [v.line for v in violations] == lines
    assert all(v.rule_id == rule_id for v in violations)


@pytest.mark.parametrize("fixture,rule_id,lines",
                         RULE_CASES, ids=[c[1] for c in RULE_CASES])
def test_line_suppression_respected(fixture, rule_id, lines):
    # Every fixture plants one extra violation under a trailing
    # suppression directive; stripping the directives must reveal
    # strictly more violations than the suppressed run.
    source = (FIXTURES / fixture).read_text()
    stripped = source.replace("repro-lint: disable", "repro-lint-off")
    unsuppressed = lint_source(stripped, path=fixture, select=[rule_id])
    assert len(unsuppressed) == len(lines) + 1


def test_file_level_suppression_silences_whole_file():
    assert lint_file(FIXTURES / "file_suppressed.py") == []
    source = (FIXTURES / "file_suppressed.py").read_text()
    stripped = source.replace("# repro-lint: disable=all", "")
    assert len(lint_source(stripped, path="file_suppressed.py")) >= 2


def test_syntax_error_reported_not_raised():
    violations = lint_file(FIXTURES / "syntax_error.py")
    assert len(violations) == 1
    assert violations[0].rule_id == "E999"
    assert "syntax error" in violations[0].message


def test_registry_has_at_least_eight_rules():
    rules = all_rules()
    assert len(rules) >= 8
    for rule_id, checker in rules.items():
        assert checker.rule_id == rule_id
        assert checker.rule_name
        assert checker.rationale


@pytest.mark.parametrize("sources,rule_id,count", PROJECT_RULE_CASES,
                         ids=[c[1] for c in PROJECT_RULE_CASES])
def test_project_rule_suppression_respected(tmp_path, sources, rule_id,
                                            count):
    suppressed = _lint_tree(tmp_path / "a", sources, rule_id)
    assert len(suppressed) == count
    revealed = _lint_tree(tmp_path / "b", sources, rule_id, reveal=True)
    assert len(revealed) == count + 1


def test_every_rule_has_a_fixture():
    covered = {rule_id for _, rule_id, _ in RULE_CASES}
    covered |= {rule_id for _, rule_id, _ in PROJECT_RULE_CASES}
    assert covered == set(all_rules())


def test_units_module_exempt_from_frequency_math():
    source = "hz = clk_mhz * 1e6\n"
    assert lint_source(source, path="src/repro/units.py",
                       select=["U003"]) == []
    assert len(lint_source(source, path="src/repro/fpga/dcm.py",
                           select=["U003"])) == 1
