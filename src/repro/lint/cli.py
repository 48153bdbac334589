"""``python -m repro lint`` subcommand.

Exit codes follow the usual linter convention:

* ``0`` — all checked files are clean.
* ``1`` — at least one violation was reported.
* ``2`` — usage error (missing path, no Python files found, unknown
  rule id).

The incremental cache is on by default (``.repro-lint-cache/``;
disable with ``--no-cache``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.lint.analyzer import collect_files, lint_files
from repro.lint.cache import LintCache
from repro.lint.fix import plan_fixes, write_changes
from repro.lint.registry import all_rules
from repro.lint.reporters import (
    format_json,
    format_rule_listing,
    format_sarif,
    format_text,
)

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2

DEFAULT_CACHE_DIR = ".repro-lint-cache"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--sarif", default=None, metavar="FILE",
                        help="additionally write a SARIF 2.1.0 report "
                             "to FILE")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"incremental cache directory (default: "
                             f"{DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental analysis cache")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanically safe fixes, then "
                             "re-lint and report what remains")
    parser.add_argument("--show-fixes", action="store_true",
                        help="preview auto-fixes as unified diffs "
                             "without writing anything")


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(format_rule_listing())
        return EXIT_CLEAN

    select = None
    if args.select:
        select = [rule.strip() for rule in args.select.split(",")
                  if rule.strip()]
        known = all_rules()
        unknown = [rule for rule in select if rule not in known]
        if unknown:
            print(f"repro lint: unknown rule id(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return EXIT_USAGE

    for raw in args.paths:
        if not Path(raw).exists():
            print(f"repro lint: no such file or directory: {raw}",
                  file=sys.stderr)
            return EXIT_USAGE

    files = collect_files(args.paths)
    if not files:
        print(f"repro lint: no Python files found under: "
              f"{', '.join(args.paths)}", file=sys.stderr)
        return EXIT_USAGE

    cache = None if args.no_cache else LintCache(args.cache_dir)
    violations = lint_files(files, select=select, cache=cache)

    if args.fix or args.show_fixes:
        plan = plan_fixes(violations)
        if args.show_fixes and plan.changes:
            print(plan.render_diffs())
        if plan.changes:
            noun = "file" if len(plan.changes) == 1 else "files"
            print(f"{plan.applied_count} auto-fixable violation(s) "
                  f"in {len(plan.changes)} {noun}"
                  + (f"; {plan.skipped_count} skipped (conflicting "
                     f"edits)" if plan.skipped_count else ""))
        if args.fix and plan.changes:
            write_changes(plan)
            print(f"applied {plan.applied_count} fix(es); re-linting")
            violations = lint_files(files, select=select, cache=cache)

    if args.format == "json":
        formatter = format_json
    elif args.format == "sarif":
        formatter = format_sarif
    else:
        formatter = format_text
    print(formatter(violations, files_checked=len(files)))

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(format_sarif(violations,
                                      files_checked=len(files)))
            handle.write("\n")
        print(f"SARIF report written to {args.sarif}", file=sys.stderr)

    return EXIT_VIOLATIONS if violations else EXIT_CLEAN


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Run the simulation-safety static analyzer.",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
