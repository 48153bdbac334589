"""``python -m repro sanitize`` — run scripts under the S903 sanitizer.

Each target script (default: the whole ``examples/`` corpus) runs once
unperturbed and once per ``--seeds`` entry under the
:class:`~repro.sanitize.determinism.DeterminismSanitizer` (S903
order-divergence via digest diffing).  ``--seeds`` must name at least
one integer.

Exit codes follow the lint CLI: 0 clean, 1 unjustified findings,
2 usage error.  ``--justify FILE`` suppresses known-benign findings
(one scenario-name entry per line, ``#`` comments); justified findings
are reported but do not fail the run.  ``--sarif FILE`` writes the
findings as SARIF 2.1.0 through the lint package's reporter, for CI's
inline annotations.
"""

from __future__ import annotations

import argparse
import os
import runpy
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.reporters import format_sarif
from repro.lint.violations import Violation
from repro.sanitize.determinism import (
    DEFAULT_SEEDS,
    DeterminismSanitizer,
    DivergenceFinding,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: SARIF metadata for the dynamic rules (they live outside the lint
#: registry; see ``format_sarif``'s ``extra_rules``).
SANITIZE_RULE_METADATA: Dict[str, tuple] = {
    "S903": ("dynamic-order-divergence",
             "run output diverged under a legal seeded perturbation "
             "of same-instant event order"),
}


def add_sanitize_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*",
        help="scripts to run under the sanitizer (default: every "
             "script in examples/)")
    default_seeds = ",".join(str(seed) for seed in DEFAULT_SEEDS)
    parser.add_argument(
        "--seeds", default=default_seeds, metavar="N[,N...]",
        help=f"perturbation seeds (default: {default_seeds})")
    parser.add_argument(
        "--justify", default=None, metavar="FILE",
        help="file of justified findings (scenario-name entries; "
             "'#' comments)")
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
    without a perturbed run the sanitizer checks nothing.
    """
    try:
        seeds = tuple(int(part) for part in raw.split(",") if part)
    except ValueError:
        seeds = ()
    if not seeds:
        raise ValueError(f"--seeds {raw!r}: expected comma-separated "
                         f"integers such as 1,2,3")
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

    all_findings: List[DivergenceFinding] = []
    root = os.getcwd()
    for script in scripts:
        name = os.path.relpath(script, root)
        determinism = sanitize_script(script, seeds=seeds,
                                      justified=justified)
        findings = determinism.findings
        all_findings.extend(findings)
        unjustified = [finding for finding in findings
                       if not finding.justified]
        if unjustified:
            status = f"{len(unjustified)} finding(s)"
        elif not any(run.tasks_run for run in determinism.runs):
            # Nothing was perturbed, so "clean" would claim a check
            # that never happened.
            status = "no simulator tasks"
        else:
            status = "clean"
        print(f"sanitize {name}: {status}")
        for finding in findings:
            marker = " [justified]" if finding.justified else ""
            print(f"  {finding.describe()}{marker}")

    if args.sarif:
        payload = format_sanitize_sarif(all_findings, len(scripts))
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
                    justified: Tuple[str, ...] = (),
                    ) -> DeterminismSanitizer:
    """Run one script under the S903 sanitizer.

    The returned sanitizer holds the script's findings and the
    :class:`~repro.sanitize.determinism.RunRecord` of every run.
    """
    determinism = DeterminismSanitizer(seeds=tuple(seeds),
                                       justified=justified)
    determinism.check(lambda: _run_script(script),
                      name=os.path.basename(script))
    return determinism


def run_sanitized_command(command: Any, args: argparse.Namespace,
                          label: str) -> int:
    """Back the ``--sanitize`` flag on table/figure and serve commands.

    Runs ``command(args)`` under the S903 sanitizer at
    :data:`DEFAULT_SEEDS`: once unperturbed, then once per seed.  The
    unperturbed run's captured output is printed and its exit code
    kept, so the command runs ``1 + len(DEFAULT_SEEDS)`` times; any
    finding turns into a non-zero exit code.

    The runs are not observed, so ``--metrics`` or ``--trace`` with
    ``--sanitize`` is a usage error rather than a silently dropped
    metrics table or trace file.
    """
    from repro import accel

    unobserved = [flag for flag, given in
                  (("--metrics", getattr(args, "metrics", False)),
                   ("--trace", getattr(args, "trace", None)))
                  if given]
    if unobserved:
        print(f"repro {label}: error: --sanitize cannot be combined "
              f"with {' or '.join(unobserved)}", file=sys.stderr)
        return EXIT_USAGE

    determinism = DeterminismSanitizer()
    findings = determinism.check(lambda: command(args), name=label)
    baseline = determinism.runs[0]
    sys.stdout.write(baseline.stdout)
    result = baseline.result
    for finding in findings:
        print(f"sanitize: {finding.describe()}")
    if findings:
        print(f"sanitize: {len(findings)} unjustified finding(s) in "
              f"{label} (accel.backend={accel.backend_name()})")
        return EXIT_FINDINGS
    print(f"sanitize: {label} clean "
          f"({len(determinism.seeds)} perturbation seed(s), "
          f"accel.backend={accel.backend_name()})")
    return int(result) if result is not None else EXIT_CLEAN


def findings_to_violations(findings: Sequence[DivergenceFinding],
                           ) -> List[Violation]:
    """Convert S903 findings to lint ``Violation`` records.

    Each finding anchors at line 1 of its scenario (the script's base
    name, or the command label), so SARIF consumers can annotate it.
    """
    return [Violation(path=finding.scenario, line=1, col=0,
                      rule_id=finding.rule_id,
                      message=finding.describe())
            for finding in findings]


def format_sanitize_sarif(findings: Sequence[DivergenceFinding],
                          files_checked: int) -> str:
    """SARIF 2.1.0 for S903 findings (shared lint reporter)."""
    return format_sarif(findings_to_violations(findings),
                        files_checked,
                        extra_rules=SANITIZE_RULE_METADATA,
                        tool_name="repro.sanitize")
