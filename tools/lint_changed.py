#!/usr/bin/env python3
"""Lint only the Python files changed relative to a git ref.

The analyzer is a whole-program tool: pass 1 still summarizes every
file so the cross-module rules (the backend contract) keep their
context, but pass 2 — the expensive rule run —
is restricted to the changed files via
``lint_files(..., report_only=...)``.  With the shared incremental
cache (``.repro-lint-cache/`` by default) the unchanged summaries are
all warm, so this is the fast pre-push check:

    python tools/lint_changed.py              # vs origin/main
    python tools/lint_changed.py --ref HEAD~3

Changed means: tracked files that differ from ``--ref`` plus untracked
files, intersected with the analyzer's normal file collection (so
fixture trees stay excluded exactly as in a full run).  Exit codes
match ``repro lint``: 0 clean, 1 violations, 2 usage/git error.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.lint import (  # noqa: E402  (sys.path bootstrap above)
    LintCache,
    all_rules,
    collect_files,
    format_text,
    lint_files,
)
from repro.lint.cli import (  # noqa: E402
    DEFAULT_CACHE_DIR,
    EXIT_CLEAN,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
)


def _git(root: Optional[Path], *argv: str) -> str:
    command = ["git"] + (["-C", str(root)] if root is not None else []) \
        + list(argv)
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(result.stderr.strip()
                           or f"git {' '.join(argv)} failed")
    return result.stdout


def changed_files(root: Path, ref: str) -> List[Path]:
    """Tracked-and-modified plus untracked ``*.py`` files, resolved."""
    diff = _git(root, "diff", "--name-only", "-z", ref, "--", "*.py")
    untracked = _git(root, "ls-files", "--others", "--exclude-standard",
                     "-z", "--", "*.py")
    names = {name for name in (diff + untracked).split("\0") if name}
    # Deleted files still appear in the diff; there is nothing to lint.
    return sorted(path for name in names
                  if (path := (root / name)).is_file())


def run(args: argparse.Namespace) -> int:
    try:
        root = Path(_git(None, "rev-parse", "--show-toplevel").strip())
        changed = changed_files(root, args.ref)
    except RuntimeError as exc:
        print(f"lint-changed: {exc}", file=sys.stderr)
        return EXIT_USAGE

    select = None
    if args.select:
        select = [rule.strip() for rule in args.select.split(",")
                  if rule.strip()]
        unknown = [rule for rule in select if rule not in all_rules()]
        if unknown:
            print(f"lint-changed: unknown rule id(s): "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return EXIT_USAGE

    if not changed:
        print(f"lint-changed: no Python files changed vs {args.ref}")
        return EXIT_CLEAN

    # The index spans the whole repo; collect_files applies the usual
    # exclusions, so changed fixture files are skipped, not linted.
    files = collect_files([str(root)])
    linted = [f for f in files if f.resolve()
              in {c.resolve() for c in changed}]
    skipped = len(changed) - len(linted)
    print(f"lint-changed: {len(linted)} changed file(s) vs {args.ref}"
          + (f" ({skipped} excluded from analysis)" if skipped else ""))
    if not linted:
        return EXIT_CLEAN

    cache = None if args.no_cache else LintCache(args.cache_dir)
    violations = lint_files(files, select=select, cache=cache,
                            report_only=[str(f) for f in linted])

    print(format_text(violations, files_checked=len(linted)))
    return EXIT_VIOLATIONS if violations else EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_changed.py",
        description="Lint only the files changed relative to a git ref, "
                    "with full whole-program context.")
    parser.add_argument("--ref", default="origin/main",
                        help="git ref to diff against "
                             "(default: origin/main)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="incremental cache directory, shared with "
                             "`repro lint` (default: "
                             f"{DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental analysis cache")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
