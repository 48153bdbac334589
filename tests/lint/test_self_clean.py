"""The repository must satisfy its own simulation-safety analyzer.

This is the gate the CI ``lint`` job enforces; running it under pytest
keeps the property visible in every local test run too.  If it fails,
either fix the flagged code, or — with a documented reason — add a
``# repro-lint: disable=RULE`` suppression.
"""

from pathlib import Path

from repro.lint import collect_files, lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CHECKED_TREES = ["src", "tests", "benchmarks", "examples", "tools"]


def _checked_paths():
    return [str(REPO_ROOT / tree) for tree in CHECKED_TREES
            if (REPO_ROOT / tree).is_dir()]


def test_repository_is_violation_free():
    violations = lint_paths(_checked_paths())
    formatted = "\n".join(v.format() for v in violations)
    assert not violations, f"repro.lint violations:\n{formatted}"


def test_gate_actually_covers_the_source_tree():
    # Guard against a silently empty walk (e.g. a bad exclusion list
    # turning the self-clean gate into a no-op).
    files = collect_files([str(REPO_ROOT / "src")])
    assert len(files) > 80
    assert not any("fixtures" in part for f in files for part in f.parts)
