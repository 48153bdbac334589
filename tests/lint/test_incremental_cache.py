"""Incremental analysis cache: warm hits, precise invalidation."""

import shutil
from pathlib import Path

from repro.lint import LintCache, collect_files, lint_files
from repro.lint import cache as cache_module
from repro.lint.cache import PACKAGE_DIR, analyzer_digest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _write_pkg(root: Path):
    # P401 here is cross-module: the worker's mutable global lives in
    # state.py, the pool dispatch in runner.py.
    (root / "pkg").mkdir()
    (root / "pkg" / "__init__.py").write_text("")
    (root / "pkg" / "state.py").write_text(
        "SEEN = []\n"
        "\n"
        "\n"
        "def tally(spec):\n"
        "    return len(SEEN) + spec\n")
    (root / "pkg" / "runner.py").write_text(
        "from concurrent.futures import ProcessPoolExecutor\n"
        "\n"
        "from pkg.state import tally\n"
        "\n"
        "\n"
        "def run(specs):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return list(pool.map(tally, specs))\n")
    return collect_files([str(root / "pkg")])


def _p401(violations):
    return [v for v in violations if v.rule_id == "P401"]


def test_warm_run_is_all_hits_and_identical(tmp_path):
    files = _write_pkg(tmp_path)
    cache = LintCache(str(tmp_path / "cache"))
    cold = lint_files(files, cache=cache)
    assert cache.result_misses == len(files)
    warm_cache = LintCache(str(tmp_path / "cache"))
    warm = lint_files(files, cache=warm_cache)
    assert warm == cold
    assert warm_cache.summary_hits == len(files)
    assert warm_cache.summary_misses == 0
    assert warm_cache.result_hits == len(files)
    assert warm_cache.result_misses == 0
    assert _p401(warm)


def test_body_edit_invalidates_only_that_file(tmp_path):
    files = _write_pkg(tmp_path)
    cache = LintCache(str(tmp_path / "cache"))
    lint_files(files, cache=cache)

    # A comment-only edit changes the file content but not its summary,
    # so the project signature is unchanged: exactly one file re-runs.
    runner = tmp_path / "pkg" / "runner.py"
    runner.write_text(runner.read_text() + "# trailing comment\n")
    warm = LintCache(str(tmp_path / "cache"))
    after = lint_files(files, cache=warm)
    assert warm.summary_misses == 1
    assert warm.result_misses == 1
    assert warm.result_hits == len(files) - 1
    assert _p401(after)


def test_api_edit_invalidates_every_result(tmp_path):
    files = _write_pkg(tmp_path)
    cache = LintCache(str(tmp_path / "cache"))
    before = lint_files(files, cache=cache)
    assert [v.path for v in _p401(before)] == [
        str(tmp_path / "pkg" / "runner.py")]

    # Freezing the global changes state.py's summary (its mutable
    # globals), which shifts the project signature: every file's
    # findings are recomputed, and the P401 in the unchanged runner.py
    # disappears.
    (tmp_path / "pkg" / "state.py").write_text(
        "SEEN = ()\n"
        "\n"
        "\n"
        "def tally(spec):\n"
        "    return len(SEEN) + spec\n")
    warm = LintCache(str(tmp_path / "cache"))
    after = lint_files(files, cache=warm)
    assert warm.result_hits == 0
    assert warm.result_misses == len(files)
    assert not _p401(after)


def test_analyzer_edit_invalidates_every_entry(tmp_path, monkeypatch):
    # Keys carry the digest of the lint package sources: nothing
    # cached by one version of the analyzer may be served to another.
    files = _write_pkg(tmp_path)
    lint_files(files, cache=LintCache(str(tmp_path / "cache")))
    monkeypatch.setattr(cache_module, "analyzer_digest", lambda: "edited")
    warm = LintCache(str(tmp_path / "cache"))
    lint_files(files, cache=warm)
    assert warm.summary_hits == warm.result_hits == 0
    assert warm.summary_misses == warm.result_misses == len(files)


def test_analyzer_digest_tracks_a_rule_message_edit(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(PACKAGE_DIR, tmp_path / "same", ignore=ignore)
    shutil.copytree(PACKAGE_DIR, tmp_path / "edited", ignore=ignore)
    floats = tmp_path / "edited" / "rules" / "floats.py"
    source = floats.read_text()
    assert "between unit quantity" in source
    floats.write_text(source.replace("between unit quantity",
                                     "between quantity"))
    assert analyzer_digest(str(tmp_path / "same")) == analyzer_digest()
    assert analyzer_digest(str(tmp_path / "edited")) != analyzer_digest()


def test_select_key_partitions_results(tmp_path):
    files = _write_pkg(tmp_path)
    cache = LintCache(str(tmp_path / "cache"))
    full = lint_files(files, cache=cache)
    narrowed = lint_files(files, select=["D101"], cache=cache)
    assert narrowed == []
    again = lint_files(files, cache=cache)
    assert again == full


def test_corrupt_entries_degrade_to_misses(tmp_path):
    files = _write_pkg(tmp_path)
    root = tmp_path / "cache"
    cache = LintCache(str(root))
    cold = lint_files(files, cache=cache)
    for blob in root.rglob("*"):
        if blob.is_file():
            blob.write_text("{ truncated")
    fresh = LintCache(str(root))
    assert lint_files(files, cache=fresh) == cold
    assert fresh.summary_hits == 0
    assert fresh.result_hits == 0


def test_clear_removes_the_store(tmp_path):
    files = _write_pkg(tmp_path)
    root = tmp_path / "cache"
    cache = LintCache(str(root))
    cold = lint_files(files, cache=cache)
    cache.clear()
    assert not root.exists()
    assert lint_files(files, cache=LintCache(str(root))) == cold


def test_fixes_survive_the_result_cache(tmp_path):
    # Violation.fix must round-trip through the JSON result store: a
    # warm --fix run plans from cached findings.
    import shutil

    fixtures = Path(__file__).resolve().parent / "fixtures"
    target = tmp_path / "d103_unordered_iteration.py"
    shutil.copy(fixtures / "d103_unordered_iteration.py", target)
    cache = LintCache(str(tmp_path / "cache"))
    cold = lint_files([target], select=["D103"], cache=cache)
    warm = lint_files([target], select=["D103"], cache=cache)
    assert cold == warm
    assert warm and all(v.fix is not None for v in warm)
    assert [v.fix for v in warm] == [v.fix for v in cold]
