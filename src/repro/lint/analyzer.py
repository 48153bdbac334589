"""Analyzer driver: file collection, two-pass analysis, dispatch.

Whole-program analysis runs in two passes:

* **Pass 1** reduces every file to a :class:`ModuleSummary` (its
  module name and top-level functions with their parameter names) and
  gathers them into a :class:`ProjectIndex`.
* **Pass 2** walks each file once more, running the local rules
  (U0xx/D1xx/E2xx/F3xx/P4xx/C5xx) and the project rules (B8xx), the
  latter with the index in hand.

Both passes are incremental when a :class:`LintCache` is supplied:
summaries are keyed by file content, findings by file content plus
the project signature, so a warm re-lint of an unchanged tree parses
nothing at all.

Violations are filtered through each file's suppression index; a
line-level directive that matches no violation, and any directive
naming an id that is not a registered rule, is itself reported
(``W001``), so stale escapes cannot accumulate.
Results are returned sorted — the analyzer practices the determinism
it preaches.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.lint.project import ProjectIndex, module_name_for
from repro.lint.registry import all_rules, get_rule
from repro.lint.summaries import ModuleSummary, summarize_module
from repro.lint.suppressions import ALL, SuppressionIndex
from repro.lint.violations import Violation

#: Tool version reported in SARIF.  Cache keys do not use it: they
#: carry a digest of the package sources instead.
ANALYZER_VERSION = "4.0"

#: Directory names skipped while walking a directory argument.  Files
#: named explicitly on the command line are always linted — that is how
#: the test fixtures (which contain planted violations) are exercised
#: without failing the repository-wide gate.
EXCLUDED_DIR_NAMES = ("fixtures", "__pycache__", ".git")

SYNTAX_ERROR_RULE = "E999"
UNUSED_SUPPRESSION_RULE = "W001"


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    seen = set()
    collected: List[Path] = []

    def add(path: Path) -> None:
        key = str(path)
        if key not in seen:
            seen.add(key)
            collected.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in EXCLUDED_DIR_NAMES
                       for part in candidate.parts):
                    continue
                add(candidate)
        else:
            add(path)
    return collected


def _parse(source: str, path: str):
    """(tree, None) on success, (None, E999 violation) on failure."""
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Violation(path=path, line=exc.lineno or 1,
                               col=(exc.offset or 1) - 1,
                               rule_id=SYNTAX_ERROR_RULE,
                               message=f"syntax error: {exc.msg}")


def _select_checkers(select: Optional[Iterable[str]]):
    if select is None:
        return list(all_rules().values())
    return [get_rule(rule_id) for rule_id in select]


def _run_checkers(tree: ast.Module, source: str, path: str,
                  checkers, index: Optional[ProjectIndex],
                  module: Optional[ModuleSummary]) -> List[Violation]:
    """Run pass 2 on one parsed file: rules + suppression filtering."""
    raw: List[Violation] = []
    checked_rules = set()
    for checker_cls in checkers:
        if not checker_cls.applies_to(path):
            continue
        checked_rules.add(checker_cls.rule_id)
        if getattr(checker_cls, "requires_index", False):
            checker = checker_cls(path, index=index, module=module)
        else:
            checker = checker_cls(path)
        checker.visit(tree)
        raw.extend(checker.violations)

    suppressions = SuppressionIndex.from_source(source)
    file_rules = suppressions.file_rules
    kept: List[Violation] = []
    used_lines = set()
    for violation in raw:
        line_rules = suppressions.line_rules.get(violation.line,
                                                frozenset())
        if ALL in line_rules or violation.rule_id in line_rules:
            used_lines.add(violation.line)
            continue
        if ALL in file_rules or violation.rule_id in file_rules:
            continue
        kept.append(violation)

    if ALL in file_rules or UNUSED_SUPPRESSION_RULE in file_rules:
        return sorted(kept)

    # An id no registered rule carries can never match, whatever
    # --select is: a typo, or an escape for a rule since deleted.
    known = set(all_rules()) | {ALL, UNUSED_SUPPRESSION_RULE}
    for line, rules in (*suppressions.file_lines.items(),
                        *suppressions.line_rules.items()):
        unknown = sorted(rules - known)
        if unknown:
            kept.append(Violation(
                path=path, line=line, col=0,
                rule_id=UNUSED_SUPPRESSION_RULE,
                message=f"unknown rule id: disable={','.join(unknown)} "
                        f"names no registered rule; fix or delete it"))

    for line, rules in suppressions.line_rules.items():
        if line in used_lines or UNUSED_SUPPRESSION_RULE in rules:
            continue
        # Judge a directive only when a rule it names actually ran
        # (under --select, suppressions for unselected rules are
        # outside this run's evidence).
        if ALL not in rules and not (rules & checked_rules):
            continue
        listed = ",".join(sorted(rules))
        kept.append(Violation(
            path=path, line=line, col=0,
            rule_id=UNUSED_SUPPRESSION_RULE,
            message=f"unused suppression: disable={listed} matches "
                    f"no violation on this line; delete it"))
    return sorted(kept)


def lint_source(source: str, path: str = "<string>",
                select: Optional[Iterable[str]] = None,
                index: Optional[ProjectIndex] = None,
                ) -> List[Violation]:
    """Lint one source string; ``select`` limits to the given rule ids.

    Without an ``index`` the project context is just this one file —
    cross-module rules then see only what the file itself defines.
    """
    tree, error = _parse(source, path)
    if error is not None:
        return [error]
    checkers = _select_checkers(select)
    module = summarize_module(tree, module_name_for(path), path)
    if index is None:
        index = ProjectIndex([module])
    return _run_checkers(tree, source, path, checkers, index, module)


def lint_file(path: Path,
              select: Optional[Iterable[str]] = None,
              index: Optional[ProjectIndex] = None) -> List[Violation]:
    source = path.read_text(encoding="utf-8")
    return lint_source(source, path=str(path), select=select, index=index)


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None,
               cache=None,
               report_only: Optional[Iterable[str]] = None
               ) -> List[Violation]:
    """Lint every Python file reachable from ``paths``, sorted."""
    return lint_files(collect_files(paths), select=select, cache=cache,
                      report_only=report_only)


def lint_files(files: Sequence[Path],
               select: Optional[Iterable[str]] = None,
               cache=None,
               report_only: Optional[Iterable[str]] = None
               ) -> List[Violation]:
    """Two-pass lint of an explicit file list.

    ``cache`` is a :class:`repro.lint.cache.LintCache` (or ``None``);
    with one, unchanged files are neither parsed nor re-checked.

    ``report_only`` restricts *pass 2* to the named files while the
    project index still covers everything — this is how
    ``tools/lint_changed.py`` lints a handful of changed files with
    full cross-module context but no full-tree rule run.
    """
    checkers = _select_checkers(select)
    select_key = ",".join(sorted(select)) if select is not None else "*"

    # Pass 1 — summaries (cached by file content).
    sources: Dict[str, str] = {}
    trees: Dict[str, ast.Module] = {}
    errors: Dict[str, Violation] = {}
    file_keys: Dict[str, str] = {}
    summaries: List[ModuleSummary] = []
    for file_path in files:
        path = str(file_path)
        source = file_path.read_text(encoding="utf-8")
        sources[path] = source
        if cache is not None:
            key = cache.file_key(path, source)
            file_keys[path] = key
            summary = cache.get_summary(key)
            if summary is not None:
                summaries.append(summary)
                continue
        tree, error = _parse(source, path)
        if error is not None:
            errors[path] = error
            summary = ModuleSummary(module=module_name_for(path),
                                    path=path)
        else:
            trees[path] = tree
            summary = summarize_module(tree, module_name_for(path), path)
        summaries.append(summary)
        if cache is not None:
            cache.put_summary(file_keys[path], summary)

    index = ProjectIndex(summaries)
    signature = f"{index.signature()}:{select_key}"
    reported = (None if report_only is None
                else {str(Path(p).resolve()) for p in report_only})

    # Pass 2 — rules (cached by file content + project signature).
    violations: List[Violation] = []
    for file_path in files:
        path = str(file_path)
        if reported is not None \
                and str(file_path.resolve()) not in reported:
            continue
        if cache is not None:
            cached = cache.get_results(file_keys[path], signature)
            if cached is not None:
                violations.extend(cached)
                continue
        if path in errors:
            found: List[Violation] = [errors[path]]
        else:
            tree = trees.get(path)
            if tree is None:  # summary came from cache; parse now
                tree, error = _parse(sources[path], path)
                if error is not None:
                    tree = None
                    found = [error]
            if tree is not None:
                found = _run_checkers(tree, sources[path], path,
                                      checkers, index,
                                      index.by_path.get(path))
        if cache is not None:
            cache.put_results(file_keys[path], signature, found)
        violations.extend(found)
    return sorted(violations)
