"""``python -m repro sanitize`` — run scripts under the sanitizers.

Each target script (default: the whole ``examples/`` corpus) is
executed two ways:

1. once under the :class:`~repro.sanitize.race.RaceSanitizer`
   (S901/S902 happens-before race detection);
2. once unperturbed and once per ``--seeds`` entry under the
   :class:`~repro.sanitize.determinism.DeterminismSanitizer`
   (S903 order-divergence via digest diffing).  ``--seeds`` must name
   at least one integer; ``--no-determinism`` is the only way to skip
   this pass.

Exit codes follow the lint CLI: 0 clean, 1 unjustified findings,
2 usage error.  ``--justify FILE`` suppresses known-benign findings
(one ``Type.attr``, ``S901:Type.attr`` or scenario-name entry per
line, ``#`` comments); justified findings are reported but do not
fail the run.  ``--sarif FILE`` writes the findings as SARIF 2.1.0
through the lint package's reporter, for CI's inline annotations.
"""

from __future__ import annotations

import argparse
import io
import os
import runpy
import sys
from contextlib import redirect_stdout
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.reporters import format_sarif
from repro.lint.violations import Violation
from repro.sanitize.determinism import DeterminismSanitizer

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: SARIF metadata for the dynamic rules (they live outside the lint
#: registry; see ``format_sarif``'s ``extra_rules``).
SANITIZE_RULE_METADATA: Dict[str, tuple] = {
    "S901": ("dynamic-write-write-race",
             "two happens-before-unordered same-instant callbacks "
             "both wrote the attribute"),
    "S902": ("dynamic-read-write-race",
             "a read and a write of the attribute in the same "
             "instant are not ordered by happens-before"),
    "S903": ("dynamic-order-divergence",
             "run output diverged under a legal seeded perturbation "
             "of same-instant event order"),
}


def add_sanitize_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*",
        help="scripts to run under the sanitizers (default: every "
             "script in examples/)")
    parser.add_argument(
        "--seeds", default="1,2,3", metavar="N[,N...]",
        help="perturbation seeds for the determinism pass "
             "(default: 1,2,3)")
    parser.add_argument(
        "--no-reads", action="store_true",
        help="skip read tracking (S902); writes-only is faster")
    parser.add_argument(
        "--no-determinism", action="store_true",
        help="skip the perturbed re-runs (race pass only)")
    parser.add_argument(
        "--justify", default=None, metavar="FILE",
        help="file of justified findings (Type.attr, S901:Type.attr "
             "or scenario-name entries; '#' comments)")
    parser.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="write dynamic findings as SARIF 2.1.0 to FILE")


def _default_scripts() -> List[str]:
    examples = os.path.join(os.getcwd(), "examples")
    if not os.path.isdir(examples):
        return []
    return [os.path.join(examples, name)
            for name in sorted(os.listdir(examples))
            if name.endswith(".py")]


def _load_justified(path: Optional[str]) -> Tuple[str, ...]:
    if path is None:
        return ()
    entries: List[str] = []
    with open(path) as handle:
        for line in handle:
            entry = line.split("#", 1)[0].strip()
            if entry:
                entries.append(entry)
    return tuple(entries)


def _parse_seeds(raw: str) -> Tuple[int, ...]:
    """The ``--seeds`` list; ``ValueError`` says what is wrong with it.

    An empty list is rejected rather than read as "no perturbed runs":
    S903 is the only check for order-dependent container mutation, so
    skipping it takes an explicit ``--no-determinism``.
    """
    try:
        seeds = tuple(int(part) for part in raw.split(",") if part)
    except ValueError:
        seeds = ()
    if not seeds:
        raise ValueError(f"--seeds {raw!r}: expected comma-separated "
                         f"integers such as 1,2,3 (--no-determinism "
                         f"skips the perturbed runs)")
    return seeds


def _run_script(path: str) -> None:
    """Execute a script as ``__main__`` with a neutral argv."""
    saved_argv = sys.argv
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = saved_argv


def run_sanitize(args: argparse.Namespace) -> int:
    scripts = [os.path.abspath(path) for path in args.paths] \
        or _default_scripts()
    if not scripts:
        print("repro sanitize: no scripts to run (no paths given and "
              "no examples/ directory)", file=sys.stderr)
        return EXIT_USAGE
    for script in scripts:
        if not os.path.isfile(script):
            print(f"repro sanitize: no such file: {script}",
                  file=sys.stderr)
            return EXIT_USAGE
    try:
        justified = _load_justified(args.justify)
    except OSError as exc:
        print(f"repro sanitize: cannot read justify file: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"repro sanitize: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    all_findings: List[Any] = []
    root = os.getcwd()
    for script in scripts:
        name = os.path.relpath(script, root)
        findings = sanitize_script(
            script, seeds=() if args.no_determinism else seeds,
            track_reads=not args.no_reads, justified=justified)
        all_findings.extend(findings)
        unjustified = [finding for finding in findings
                       if not finding.justified]
        status = "clean" if not unjustified \
            else f"{len(unjustified)} finding(s)"
        print(f"sanitize {name}: {status}")
        for finding in findings:
            marker = " [justified]" if finding.justified else ""
            print(f"  {finding.describe()}{marker}")

    if args.sarif:
        payload = format_sanitize_sarif(all_findings, len(scripts),
                                        root=root)
        with open(args.sarif, "w") as handle:
            handle.write(payload + "\n")
        print(f"\nsarif: {len(all_findings)} finding(s) -> {args.sarif}")

    unjustified_total = sum(1 for finding in all_findings
                            if not finding.justified)
    total_label = "finding" if unjustified_total == 1 else "findings"
    print(f"\nsanitize: {unjustified_total} unjustified {total_label} "
          f"across {len(scripts)} scenario(s)")
    return EXIT_FINDINGS if unjustified_total else EXIT_CLEAN


def sanitize_script(script: str, seeds: Sequence[int],
                    track_reads: bool = True,
                    justified: Tuple[str, ...] = ()) -> List[Any]:
    """Run one script under both sanitizers; return its findings."""
    from repro.sanitize import sanitized

    findings: List[Any] = []
    with sanitized(track_reads=track_reads,
                   justified=justified) as sanitizer:
        with redirect_stdout(io.StringIO()):
            _run_script(script)
    findings.extend(sanitizer.findings)
    if seeds:
        determinism = DeterminismSanitizer(seeds=tuple(seeds),
                                           justified=justified)
        determinism.check(lambda: _run_script(script),
                          name=os.path.basename(script))
        findings.extend(determinism.findings)
    return findings


def run_sanitized_command(command: Any, args: argparse.Namespace,
                          label: str) -> int:
    """Back the ``--sanitize`` flag on table/figure commands.

    Runs ``command(args)`` under the race sanitizer plus a seeded
    determinism check, prints any findings, and turns them into a
    non-zero exit code.
    """
    from repro import accel
    from repro.sanitize import sanitized

    with sanitized() as sanitizer:
        result = command(args)
    findings: List[Any] = list(sanitizer.findings)
    determinism = DeterminismSanitizer(seeds=(1,))
    determinism.check(lambda: command(args), name=label)
    findings.extend(determinism.findings)
    for finding in findings:
        print(f"sanitize: {finding.describe()}")
    unjustified = sum(1 for finding in findings
                      if not finding.justified)
    if unjustified:
        print(f"sanitize: {unjustified} unjustified finding(s) in "
              f"{label} (accel.backend={accel.backend_name()})")
        return EXIT_FINDINGS
    print(f"sanitize: {label} clean "
          f"({len(determinism.seeds)} perturbation seed(s), "
          f"accel.backend={accel.backend_name()})")
    return int(result) if result is not None else EXIT_CLEAN


def findings_to_violations(findings: Sequence[Any],
                           root: Optional[str] = None) -> List[Violation]:
    """Convert dynamic findings to lint ``Violation`` records.

    Each finding anchors at its first concrete schedule site (relative
    to ``root`` when given) so SARIF consumers can annotate the line
    that scheduled one side of the race; a finding without one (S903)
    anchors at its scenario.
    """
    violations: List[Violation] = []
    for finding in findings:
        path, line = "<dynamic>", 1
        for candidate_path, candidate_line \
                in getattr(finding, "schedule_sites", ()):
            if candidate_path and not candidate_path.startswith("<"):
                path, line = candidate_path, candidate_line
                break
        else:
            scenario = getattr(finding, "scenario", None)
            if scenario:
                path = scenario
        if root is not None and os.path.isabs(path):
            try:
                path = os.path.relpath(path, root)
            except ValueError:
                pass
        violations.append(Violation(path=path, line=line, col=0,
                                    rule_id=finding.rule_id,
                                    message=finding.describe()))
    return violations


def format_sanitize_sarif(findings: Sequence[Any],
                          files_checked: int,
                          root: Optional[str] = None) -> str:
    """SARIF 2.1.0 for dynamic findings (shared lint reporter)."""
    return format_sarif(findings_to_violations(findings, root=root),
                        files_checked,
                        extra_rules=SANITIZE_RULE_METADATA,
                        tool_name="repro.sanitize")
