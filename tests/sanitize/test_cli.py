"""``python -m repro sanitize`` CLI: exit codes, SARIF, justification."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.sanitize import DeterminismSanitizer
from repro.sanitize.cli import (
    SANITIZE_RULE_METADATA,
    findings_to_violations,
    format_sanitize_sarif,
)
from tests.sanitize.test_determinism import overwrite

SRC = str(Path(__file__).resolve().parents[2] / "src")

CLEAN_SCRIPT = """\
from repro.sim import Simulator

sim = Simulator()
acc = []
for value in (3, 1, 2):
    sim.call_at(100, lambda value=value: acc.append(value))
sim.run()
print(sorted(acc))
"""

def run_cli(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-m", "repro", "sanitize", *argv],
        capture_output=True, text=True, env=env, cwd=str(cwd))


@pytest.fixture
def clean_script(tmp_path):
    path = tmp_path / "clean_scenario.py"
    path.write_text(CLEAN_SCRIPT)
    return path


@pytest.fixture
def racy_script(tmp_path):
    # Print the *order-dependent* accumulation so the determinism pass
    # sees divergent stdout under perturbation.
    path = tmp_path / "racy_scenario.py"
    path.write_text(textwrap.dedent("""\
        from repro.sim import Simulator

        sim = Simulator()
        acc = []
        for value in (3, 1, 2):
            sim.call_at(100, lambda value=value: acc.append(value))
        sim.run()
        print(acc)
    """))
    return path


def test_clean_script_exits_zero(clean_script, tmp_path):
    result = run_cli(str(clean_script), cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout
    assert "0 unjustified findings" in result.stdout


def test_script_without_a_simulator_is_not_called_clean(tmp_path):
    # No simulator task ran, so there was nothing to perturb: the
    # report says so instead of "clean", and the exit code stays 0.
    path = tmp_path / "no_sim.py"
    path.write_text("print(sorted({3, 1, 2}))\n")
    result = run_cli(str(path), cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "sanitize no_sim.py: no simulator tasks" in result.stdout
    assert "clean" not in result.stdout
    assert "0 unjustified findings" in result.stdout


def test_divergent_script_exits_one(racy_script, tmp_path):
    result = run_cli(str(racy_script), "--seeds", "1,2,3,4,5,6,7,8",
                     cwd=tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "S903" in result.stdout


def test_justify_file_downgrades_findings(racy_script, tmp_path):
    justify = tmp_path / "justify.txt"
    justify.write_text("# known order-dependence\nracy_scenario.py\n")
    result = run_cli(str(racy_script), "--seeds", "1,2,3,4,5,6,7,8",
                     "--justify", str(justify), cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "[justified]" in result.stdout


def test_sarif_output_is_written(racy_script, tmp_path):
    sarif = tmp_path / "out.sarif"
    result = run_cli(str(racy_script), "--seeds", "1,2,3,4,5,6,7,8",
                     "--sarif", str(sarif), cwd=tmp_path)
    assert result.returncode == 1
    payload = json.loads(sarif.read_text())
    [run] = payload["runs"]
    assert run["tool"]["driver"]["name"] == "repro.sanitize"
    assert any(res["ruleId"] == "S903" for res in run["results"])


def test_missing_script_is_a_usage_error(tmp_path):
    result = run_cli(str(tmp_path / "nope.py"), cwd=tmp_path)
    assert result.returncode == 2
    assert "no such file" in result.stderr


def test_no_scripts_anywhere_is_a_usage_error(tmp_path):
    result = run_cli(cwd=tmp_path)  # no examples/ in tmp_path
    assert result.returncode == 2


@pytest.mark.parametrize("seeds", ["abc", "1,x", ",", ""],
                         ids=["word", "bad-entry", "comma", "empty"])
def test_bad_seeds_are_a_usage_error(clean_script, tmp_path, seeds):
    # An empty list must not silently skip the perturbed runs.
    result = run_cli(str(clean_script), "--seeds", seeds, cwd=tmp_path)
    assert result.returncode == 2, result.stdout + result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("repro sanitize: error: --seeds")


def _order_divergence():
    return DeterminismSanitizer().check(overwrite,
                                        name="racy_scenario.py")


def test_findings_convert_to_violations_with_relative_paths():
    findings = _order_divergence()
    violations = findings_to_violations(findings)
    assert violations
    for violation in violations:
        assert violation.rule_id == "S903"
        # anchored at its scenario: the script's base name
        assert violation.path == "racy_scenario.py"
        assert violation.line == 1


def test_sanitize_sarif_is_valid_and_carries_rule_metadata():
    payload = json.loads(format_sanitize_sarif(_order_divergence(), 1))
    assert payload["version"] == "2.1.0"
    [run] = payload["runs"]
    assert run["tool"]["driver"]["name"] == "repro.sanitize"
    rules = {rule["id"]: (rule["name"], rule["shortDescription"]["text"])
             for rule in run["tool"]["driver"]["rules"]}
    assert rules == {"S903": SANITIZE_RULE_METADATA["S903"]}
    assert set(SANITIZE_RULE_METADATA) == {"S903"}
    assert run["results"]
    for result in run["results"]:
        assert result["ruleId"] in rules
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "racy_scenario.py"


@pytest.mark.parametrize("argv,named", [
    (["table2", "--metrics"], "--metrics"),
    (["table2", "--trace", "TRACE"], "--trace"),
    (["table2", "--metrics", "--trace", "TRACE"], "--metrics or --trace"),
    (["serve", "run", "--requests", "10", "--metrics"], "--metrics"),
])
def test_sanitize_rejects_metrics_and_trace(tmp_path, capsys, argv,
                                            named):
    # The sanitized runs are not observed: rather than print no
    # metrics table and write no trace file, refuse the combination.
    from repro.cli import main

    trace = tmp_path / "trace.json"
    argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
    assert main([*argv, "--sanitize"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--sanitize cannot be combined with {named}" in captured.err
    assert not trace.exists()
