"""The repository must satisfy its own simulation-safety analyzer.

This is the gate the CI ``lint`` job enforces; running it under pytest
keeps the property visible in every local test run too.  If it fails,
either fix the flagged code, or — with a documented reason — add a
``# repro-lint: disable=RULE`` suppression or a justified entry in
``.repro-lint-baseline.json``.
"""

from pathlib import Path

from repro.lint import (
    apply_baseline,
    collect_files,
    lint_paths,
    load_baseline,
)
from repro.lint.baseline import normalize_path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CHECKED_TREES = ["src", "tests", "benchmarks", "examples", "tools"]
BASELINE = REPO_ROOT / ".repro-lint-baseline.json"


def _checked_paths():
    return [str(REPO_ROOT / tree) for tree in CHECKED_TREES
            if (REPO_ROOT / tree).is_dir()]


def test_repository_is_violation_free():
    paths = _checked_paths()
    violations = lint_paths(paths)
    entries = load_baseline(str(BASELINE))
    checked = {normalize_path(str(f)) for f in collect_files(paths)}
    remaining = apply_baseline(violations, entries, str(BASELINE),
                               checked_paths=checked)
    formatted = "\n".join(v.format() for v in remaining)
    assert not remaining, f"repro.lint violations:\n{formatted}"


def test_baseline_entries_all_still_match():
    # The baseline may only shrink: every entry must still match a
    # real finding, or apply_baseline reports it as W002 above.  This
    # guard additionally pins the current size so growth needs a
    # deliberate edit here.
    entries = load_baseline(str(BASELINE))
    assert len(entries) <= 10
    assert all(e.justification and not e.justification.startswith("FIXME")
               for e in entries)


def test_baseline_machinery_covers_the_new_rule_families():
    # The shrink-only guard must keep working if a B finding ever
    # needs baselining: entries for the v3 families flow through
    # apply_baseline exactly like the U1xx ones (match, shrink-only
    # W002, no silent growth).
    from repro.lint import BaselineEntry, Violation, apply_baseline

    finding = Violation(path="src/repro/core/x.py", line=9, col=0,
                        rule_id="B804", message="bypass of 'pure'")
    entry = BaselineEntry(path="src/repro/core/x.py", rule="B804",
                          message="bypass of 'pure'", count=2,
                          justification="deliberate")
    remaining = apply_baseline([finding, finding], [entry], "b.json",
                               checked_paths={"src/repro/core/x.py"})
    assert remaining == []
    stale = apply_baseline([], [entry], "b.json",
                           checked_paths={"src/repro/core/x.py"})
    assert [v.rule_id for v in stale] == ["W002"]


def test_gate_actually_covers_the_source_tree():
    # Guard against a silently empty walk (e.g. a bad exclusion list
    # turning the self-clean gate into a no-op).
    files = collect_files([str(REPO_ROOT / "src")])
    assert len(files) > 80
    assert not any("fixtures" in part for f in files for part in f.parts)
