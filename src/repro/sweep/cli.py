"""``python -m repro sweep`` — run a named experiment grid.

Usage::

    python -m repro sweep fig5                  # serial
    python -m repro sweep fig5 -j 4             # four worker processes
    python -m repro sweep smoke --json out.json # machine-readable dump

Every run recomputes its grid; nothing is stored between runs.
Results are printed sorted by cell key and are identical for any
``-j`` — parallelism never changes the output.
"""

from __future__ import annotations

import argparse
import json
from typing import List

from repro.report import render_table
from repro.sweep.engine import SweepEngine, SweepResult
from repro.sweep.spec import GRIDS


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("grid", choices=sorted(GRIDS),
                        help="named experiment grid to run")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes (default 1: serial)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write results as JSON to FILE")
    parser.add_argument("--metrics", action="store_true",
                        help="collect per-worker metrics registries, "
                             "merge them and print the roll-up")
    parser.add_argument("--sanitize", action="store_true",
                        help="re-run the grid under the S903 "
                             "determinism sanitizer (forces -j 1: "
                             "perturbation is in-process; findings "
                             "fail the sweep)")


def _result_rows(results: List[SweepResult]) -> List[List[object]]:
    rows: List[List[object]] = []
    for result in results:
        if result.workload == "reconfigure":
            rows.append([result.key, result.effective_mbps,
                         f"{result.duration_ps / 1e6:.1f} us",
                         "ok" if result.verified else "FAIL"])
        else:
            rows.append([result.key, result.ratio_percent,
                         f"{result.compressed_size} B", "ok"])
    return rows


def run_sweep(args: argparse.Namespace) -> int:
    grid = GRIDS[args.grid]
    sanitize = getattr(args, "sanitize", False)
    jobs = args.jobs
    if sanitize:
        # The sanitizer perturbs simulators built in this process;
        # worker processes would escape it.
        jobs = 1
    engine = SweepEngine(grid, jobs=jobs,
                         collect_metrics=getattr(args, "metrics", False))
    if sanitize:
        from repro.sanitize import DeterminismSanitizer
        determinism = DeterminismSanitizer()
        runs = []

        def scenario():
            runs.append(engine.run())
            # Digest the result records, not the printed table: the
            # table's wall time differs between runs.
            return [result.to_record() for result in runs[-1]]

        determinism.check(scenario, name=f"sweep {grid.name}")
        results = runs[0]  # the unperturbed run's cells
    else:
        results = engine.run()

    value_header = ("MB/s" if grid.workload == "reconfigure"
                    else "ratio %")
    detail_header = ("duration" if grid.workload == "reconfigure"
                     else "compressed")
    print(render_table(
        ["cell", value_header, detail_header, "crc"],
        _result_rows(results),
        title=f"sweep {grid.name} -- {grid.description}"))
    print(f"\n{len(results)} cells in {engine.wall_s:.2f} s "
          f"(-j {engine.jobs}, {engine.utilization * 100:.0f}% "
          f"fan-out utilisation)")

    if getattr(args, "metrics", False):
        rows = engine.registry.rows()
        print()
        print(render_table(["metric", "kind", "value"], rows,
                           title="merged worker metrics "
                                 "(deterministic for any -j)"))

    if args.json:
        with open(args.json, "w") as handle:
            json.dump([result.to_record() for result in results],
                      handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")

    failed = [result.key for result in results
              if result.workload == "reconfigure" and not result.verified]
    if sanitize:
        from repro import accel
        for finding in determinism.findings:
            print(f"sanitize: {finding.describe()}")
        print(f"sanitize: {len(determinism.findings)} unjustified "
              f"finding(s) ({len(determinism.seeds)} perturbation "
              f"seed(s), accel.backend={accel.backend_name()})")
        if determinism.findings:
            return 1
    return 1 if failed else 0
