"""``repro.lint`` — project-wide simulation-safety static analysis.

The Python type system cannot see the invariants this reproduction
rests on: integer-picosecond time, :class:`repro.units.Frequency` for
all clock math, bit-exact determinism, and kernel-owned event dispatch.
This package checks them statically, with project-specific rules, and
backs the ``python -m repro lint`` CLI plus the CI gate.

It is a two-pass whole-program analyzer: pass 1 builds a
:class:`~repro.lint.project.ProjectIndex` (imports, call graph,
per-function parameter names and global reads), pass 2 runs local
rules plus project rules (sweep process-safety, cache-key purity,
accel backend-contract conformance) against it.  Rules may attach
mechanically safe fixes, applied with ``--fix`` or previewed with
``--show-fixes``.  An incremental cache makes warm re-lints
near-instant.

Typical use::

    from repro.lint import lint_paths
    violations = lint_paths(["src"])

Suppress a rule on one line with a trailing ``# repro-lint:
disable=RULE`` comment, or for a whole file with the same comment on a
line of its own.  See ``docs/static_analysis.md`` for the rule catalog.
"""

from repro.lint.analyzer import (
    build_project_index,
    collect_files,
    lint_file,
    lint_files,
    lint_paths,
    lint_source,
)
from repro.lint.cache import LintCache
from repro.lint.fix import FixPlan, plan_fixes, write_changes
from repro.lint.project import ProjectIndex
from repro.lint.registry import (
    Checker,
    ProjectChecker,
    all_rules,
    get_rule,
    register,
)
from repro.lint.reporters import (
    format_json,
    format_rule_listing,
    format_sarif,
    format_text,
)
from repro.lint.violations import Edit, Fix, Violation

__all__ = [
    "Checker",
    "Edit",
    "Fix",
    "FixPlan",
    "LintCache",
    "ProjectChecker",
    "ProjectIndex",
    "Violation",
    "all_rules",
    "build_project_index",
    "collect_files",
    "format_json",
    "format_rule_listing",
    "format_sarif",
    "format_text",
    "get_rule",
    "lint_file",
    "lint_files",
    "lint_paths",
    "lint_source",
    "plan_fixes",
    "register",
    "write_changes",
]
