"""``tools/lint_changed.py``: changed-files linting with full context.

Each test builds a throwaway git repository, so the tool's diff logic
runs against real git state rather than mocks.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "lint_changed.py"

VIOLATION = (
    "def check(result):\n"
    "    if result.duration_ps == 1.5:\n"
    "        pass\n"
)
CLEAN = "def check(result):\n    return result\n"


def _git(repo, *argv):
    subprocess.run(["git", "-C", str(repo), *argv],
                   check=True, capture_output=True)


@pytest.fixture
def repo(tmp_path):
    _git(tmp_path, "init", "-q", "-b", "main")
    _git(tmp_path, "config", "user.email", "dev@example.invalid")
    _git(tmp_path, "config", "user.name", "dev")
    (tmp_path / "a.py").write_text(VIOLATION)
    (tmp_path / "b.py").write_text(VIOLATION)
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def _run(repo, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, str(TOOL), "--no-cache", *argv],
        cwd=str(repo), env=env, capture_output=True, text=True)


def test_reports_only_the_changed_file(repo):
    (repo / "b.py").write_text(VIOLATION + "\n# touched\n")
    result = _run(repo, "--ref", "HEAD")
    assert result.returncode == 1
    assert "b.py" in result.stdout
    # a.py carries the same violation but did not change.
    assert "a.py" not in result.stdout


def test_no_changes_is_clean(repo):
    result = _run(repo, "--ref", "HEAD")
    assert result.returncode == 0
    assert "no Python files changed" in result.stdout


def test_untracked_files_are_linted(repo):
    (repo / "fresh.py").write_text(VIOLATION)
    result = _run(repo, "--ref", "HEAD")
    assert result.returncode == 1
    assert "fresh.py" in result.stdout and "F301" in result.stdout


def test_fixing_the_file_exits_clean(repo):
    (repo / "b.py").write_text(CLEAN)
    result = _run(repo, "--ref", "HEAD")
    assert result.returncode == 0
    assert "1 changed file(s)" in result.stdout


def test_cross_module_context_survives_the_restriction(repo):
    # The changed backend's violation is only provable with the
    # *unchanged* pure module's summary in the index: report_only
    # must restrict reporting, not analysis.
    pkg = repo / "kernel_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""pkg."""\n')
    (pkg / "pure.py").write_text("def fold(data):\n    return data\n")
    (pkg / "native_backend.py").write_text(
        "def fold(data):\n    return data\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "pkg")

    (pkg / "native_backend.py").write_text(
        "def fold(data):\n    return data\n\n\n"
        "def unfold(data):\n    return data\n")
    result = _run(repo, "--ref", "HEAD")
    assert result.returncode == 1
    assert "B801" in result.stdout
    assert "native_backend.py" in result.stdout
    assert "'unfold' has no pure reference" in result.stdout
    assert "pure.py" not in result.stdout


def test_unknown_ref_is_a_usage_error(repo):
    result = _run(repo, "--ref", "no-such-ref")
    assert result.returncode == 2
    assert "lint-changed:" in result.stderr


def test_select_and_warm_cache_agree_with_cold(repo):
    (repo / "b.py").write_text(VIOLATION + "\n# touched\n")
    cold = _run(repo, "--ref", "HEAD", "--select", "F301")
    # Re-run with the cache enabled twice; findings must be identical.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    def cached():
        return subprocess.run(
            [sys.executable, str(TOOL),
             "--ref", "HEAD", "--select", "F301",
             "--cache-dir", str(repo / ".cache")],
            cwd=str(repo), env=env, capture_output=True, text=True)

    first, second = cached(), cached()
    assert cold.returncode == first.returncode == second.returncode == 1
    assert first.stdout == second.stdout == cold.stdout
