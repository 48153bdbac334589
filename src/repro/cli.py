"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro table1          # compression ratios
    python -m repro table2          # slice counts
    python -m repro table3          # controller comparison
    python -m repro fig5            # bandwidth surface
    python -m repro fig7            # power traces
    python -m repro energy          # the 45x comparison
    python -m repro all             # everything
    python -m repro table3 --size-kb 128

The same harnesses back ``repro validate`` and the test suite; the
CLI just prints the tables (useful for quick exploration and for
users without the dev dependencies installed).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.bandwidth import (
    FIG5_FREQUENCIES_MHZ,
    FIG5_SIZES_KB,
    anchor_points,
    bandwidth_surface,
)
from repro.analysis.comparison import compare_controllers
from repro.analysis.powersweep import (
    PAPER_FIG7,
    energy_comparison,
    fig7_power_sweep,
)
from repro.analysis.report import render_heatmap, render_series, render_table
from repro.bitstream.generator import generate_bitstream
from repro.compress import PAPER_TABLE1_RATIOS, all_codecs
from repro.fpga.area import slices_for
from repro.units import DataSize


def _cmd_table1(args: argparse.Namespace) -> None:
    corpus = [generate_bitstream(size=DataSize.from_kb(kb), seed=seed)
              for kb, seed in ((49, 101), (81, 202), (156, 303))]
    rows = []
    for codec in all_codecs():
        values = [codec.measure(bs.raw_bytes).ratio_percent
                  for bs in corpus]
        measured = sum(values) / len(values)
        paper = PAPER_TABLE1_RATIOS[codec.name]
        rows.append([codec.name, measured, paper, measured - paper])
    print(render_table(["Algorithm", "measured %", "paper %", "delta"],
                       rows, title="Table I -- compression ratios"))


def _cmd_table2(args: argparse.Namespace) -> None:
    paper = {"dyclogen": ("DyCloGen", 24, 18),
             "urec": ("UReC", 26, 26),
             "decompressor": ("Decompressor", 1035, 900)}
    rows = [[label, slices_for(module, "virtex5"), v5,
             slices_for(module, "virtex6"), v6]
            for module, (label, v5, v6) in paper.items()]
    print(render_table(["Module", "V5", "paper", "V6", "paper"], rows,
                       title="Table II -- slices of UPaRC basic blocks"))


def _cmd_table3(args: argparse.Namespace) -> None:
    rows = compare_controllers(size_kb=args.size_kb)
    table = [[row.controller, row.measured_mbps, row.paper_mbps,
              f"{row.relative_error_percent:+.1f}%", row.grade,
              row.max_frequency_mhz, "ok" if row.verified else "FAIL"]
             for row in rows]
    print(render_table(
        ["Controller", "measured MB/s", "paper MB/s", "err",
         "capacity", "Fmax", "CRC"],
        table, title=f"Table III -- controllers ({args.size_kb:g} KB)"))


def _cmd_fig5(args: argparse.Namespace) -> None:
    points = bandwidth_surface()
    by_cell = {(p.size.kb, p.frequency.mhz): p for p in points}
    headers = ["KB \\ MHz"] + [f"{mhz:g}" for mhz in FIG5_FREQUENCIES_MHZ]
    rows = []
    for size_kb in FIG5_SIZES_KB:
        rows.append([f"{size_kb:g}"]
                    + [by_cell[(size_kb, mhz)].effective_mbps
                       for mhz in FIG5_FREQUENCIES_MHZ])
    print(render_table(headers, rows,
                       title="Fig. 5 -- effective bandwidth (MB/s)"))
    print()
    print(render_heatmap(
        [f"{kb:g} KB" for kb in FIG5_SIZES_KB],
        [f"{mhz:g}" for mhz in FIG5_FREQUENCIES_MHZ],
        [[by_cell[(kb, mhz)].effective_mbps
          for mhz in FIG5_FREQUENCIES_MHZ] for kb in FIG5_SIZES_KB],
        title="surface shape (darker = faster)", corner="KB \\ MHz"))
    anchors = anchor_points(points)
    print(f"\nanchors at 362.5 MHz: 6.5 KB -> {anchors['small']:.1f}% "
          f"(paper 78.8%), 247 KB -> {anchors['large']:.1f}% (paper 99%)")


def _cmd_fig7(args: argparse.Namespace) -> None:
    points = fig7_power_sweep()
    rows = []
    for point in points:
        paper_mw, paper_us = PAPER_FIG7[point.frequency.mhz]
        rows.append([f"{point.frequency.mhz:g}", point.plateau_mw,
                     paper_mw, point.reconfiguration_us, paper_us,
                     point.energy_uj])
    print(render_table(
        ["MHz", "plateau mW", "paper", "time us", "paper", "energy uJ"],
        rows, title="Fig. 7 -- power during reconfiguration"))
    print()
    print(render_series([(p.frequency.mhz, p.plateau_mw) for p in points],
                        title="power vs CLK_2", x_label="MHz",
                        y_label="mW"))


def _cmd_validate(args: argparse.Namespace) -> None:
    from repro.analysis.validation import validate_reproduction
    report = validate_reproduction(quick=getattr(args, "quick", False))
    width = max(len(f"{c.source}: {c.statement}")
                for c in report.claims)
    for claim in report.claims:
        label = f"{claim.source}: {claim.statement}"
        status = "PASS" if claim.passed else "FAIL"
        suffix = f"  ({claim.detail})" if claim.detail else ""
        print(f"{label.ljust(width)}  {status}{suffix}")
    print(f"\n{report.summary}")
    if not report.passed:
        raise SystemExit(1)


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.analysis.markdown_report import build_report
    text = build_report()
    if getattr(args, "output", None):
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)


def _cmd_selftest(args: argparse.Namespace) -> None:
    """Quick library self-validation without pytest."""
    from repro.compress import all_codecs
    from repro.core.system import UPaRCSystem
    from repro.fpga.area import slices_for

    checks = []

    bitstream = generate_bitstream(size=DataSize.from_kb(16))
    for codec in all_codecs():
        ok = codec.decompress(codec.compress(
            bitstream.raw_bytes[:8192])) == bitstream.raw_bytes[:8192]
        checks.append((f"codec roundtrip: {codec.name}", ok))

    checks.append(("Table II exact",
                   slices_for("urec", "virtex5") == 26
                   and slices_for("decompressor", "virtex6") == 900))

    from repro.units import Frequency
    system = UPaRCSystem(decompressor=None)
    result = system.run(bitstream, frequency=Frequency.from_mhz(362.5))
    checks.append(("UPaRC run verified", result.verified))
    checks.append(("frames configured",
                   result.frames_written == bitstream.frame_count))

    width = max(len(label) for label, _ in checks)
    failures = 0
    for label, ok in checks:
        print(f"{label.ljust(width)}  {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    print(f"\n{len(checks) - failures}/{len(checks)} checks passed")
    if failures:
        raise SystemExit(1)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint
    return run_lint(args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep.cli import run_sweep
    return run_sweep(args)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.cli import run_obs
    return run_obs(args)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.sanitize.cli import run_sanitize
    return run_sanitize(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.cli import run_serve
    return run_serve(args)


def _cmd_energy(args: argparse.Namespace) -> None:
    comparison = energy_comparison()
    rows = [
        ["xps_hwicap (unoptimized)", f"{comparison.xps.uj_per_kb:.2f}",
         "30.00", f"{comparison.xps.mean_power_mw:.1f}"],
        ["UPaRC_i @ 100 MHz", f"{comparison.uparc.uj_per_kb:.3f}",
         "0.66", f"{comparison.uparc.mean_power_mw:.1f}"],
    ]
    print(render_table(
        ["Controller", "uJ/KB", "paper", "power mW"], rows,
        title="Section V -- energy efficiency"))
    print(f"\nratio: {comparison.efficiency_ratio:.1f}x (paper: 45x)")


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "fig5": _cmd_fig5,
    "fig7": _cmd_fig7,
    "energy": _cmd_energy,
    "selftest": _cmd_selftest,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "lint": _cmd_lint,
    "sweep": _cmd_sweep,
    "obs": _cmd_obs,
    "sanitize": _cmd_sanitize,
    "serve": _cmd_serve,
}

#: Commands that accept --trace/--metrics: the run executes inside
#: ``repro.obs.observed(...)``, so every system it constructs picks up
#: the collectors.  (``sweep`` handles --metrics itself — its cells
#: run in worker processes with their own registries.)
_OBSERVABLE = ("table1", "table2", "table3", "fig5", "fig7", "energy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the UPaRC paper's tables and figures.",
    )
    parser.add_argument(
        "--backend", choices=("auto", "pure", "native"),
        default=None,
        help="datapath backend (default: auto — native when built, "
             "else pure Python; outputs are byte-identical whichever "
             "runs). The REPRO_BACKEND "
             "environment variable sets the same choice with lower "
             "precedence.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        if name == "lint":
            sub = subparsers.add_parser(
                name, help="run the simulation-safety static analyzer "
                           "(exit 0 clean, 1 violations, 2 usage error)")
            from repro.lint.cli import add_lint_arguments
            add_lint_arguments(sub)
            continue
        if name == "sweep":
            sub = subparsers.add_parser(
                name, help="run an experiment grid (process-parallel, "
                           "artifact-cached)")
            from repro.sweep.cli import add_sweep_arguments
            add_sweep_arguments(sub)
            continue
        if name == "obs":
            sub = subparsers.add_parser(
                name, help="summarise a Chrome-trace JSON written "
                           "with --trace")
            from repro.obs.cli import add_obs_arguments
            add_obs_arguments(sub)
            continue
        if name == "sanitize":
            sub = subparsers.add_parser(
                name, help="run scripts under the dynamic race & "
                           "determinism sanitizers (exit 0 clean, "
                           "1 findings, 2 usage error)")
            from repro.sanitize.cli import add_sanitize_arguments
            add_sanitize_arguments(sub)
            continue
        if name == "serve":
            sub = subparsers.add_parser(
                name, help="drive a simulated FPGA fleet against an "
                           "open-loop request stream (run | bench)")
            from repro.serve.cli import add_serve_arguments
            add_serve_arguments(sub)
            continue
        sub = subparsers.add_parser(name, help=f"regenerate {name}")
        if name in _OBSERVABLE:
            sub.add_argument("--trace", default=None, metavar="FILE",
                             help="write a Chrome trace_event JSON of "
                                  "the run (view in Perfetto)")
            sub.add_argument("--metrics", action="store_true",
                             help="collect the metrics registry and "
                                  "print it after the run")
            sub.add_argument("--sanitize", action="store_true",
                             help="run under the dynamic race & "
                                  "determinism sanitizers (implies a "
                                  "seeded re-run; findings fail the "
                                  "command)")
        if name == "table3":
            sub.add_argument("--size-kb", type=float, default=216.5,
                             help="bitstream size (default 216.5)")
        if name == "report":
            sub.add_argument("--output", default=None,
                             help="write Markdown to this file")
        if name == "validate":
            sub.add_argument("--quick", action="store_true",
                             help="smaller workloads, sub-30s gate")
    subparsers.add_parser("all", help="regenerate everything")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Resolve the datapath backend up front (also validates a bad
    # REPRO_BACKEND value) so selection errors are usage errors, not
    # tracebacks from the first kernel call mid-run.
    from repro import accel
    from repro.errors import AccelError
    try:
        accel.select(getattr(args, "backend", None))
    except AccelError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "all":
        for index, (name, command) in enumerate(_COMMANDS.items()):
            if index:
                print()
            if name == "table3":
                command(argparse.Namespace(size_kb=216.5))
            elif name in ("report", "validate", "lint", "sweep", "obs",
                          "sanitize", "serve"):
                continue  # 'all' already prints every table
            else:
                command(args)
        return 0
    command = _COMMANDS[args.command]
    if getattr(args, "sanitize", False) and args.command in _OBSERVABLE:
        from repro.sanitize.cli import run_sanitized_command
        return run_sanitized_command(command, args, args.command)
    trace_file = getattr(args, "trace", None)
    want_metrics = bool(getattr(args, "metrics", False)) \
        and args.command in _OBSERVABLE
    if trace_file or want_metrics:
        from repro import obs
        from repro.analysis.report import render_table
        with obs.observed(trace=bool(trace_file),
                          metrics=want_metrics) as observation:
            result = command(args)
        if want_metrics:
            print()
            print(render_table(
                ["metric", "kind", "value"],
                observation.registry.rows(),
                title=f"metrics -- {args.command}"))
        if trace_file:
            count = obs.write_chrome_trace(observation.tracer,
                                           trace_file)
            print(f"\ntrace: {count} events -> {trace_file}")
        return int(result) if result is not None else 0
    result = command(args)
    return int(result) if result is not None else 0


if __name__ == "__main__":
    sys.exit(main())
