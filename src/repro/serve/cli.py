"""``python -m repro serve`` — fleet serving scenarios.

Usage::

    python -m repro serve run                    # default scenario
    python -m repro serve run --requests 20000 --load 1.5 --preempt
    python -m repro serve run --json report.json --metrics
    python -m repro serve run --sanitize         # S903 checked
    python -m repro serve bench -j 4             # SLO curve, 4 workers
    python -m repro serve bench --output BENCH_serve.json

``run`` serves one scenario and prints its SLO report; ``bench``
sweeps the scenario across offered-load levels (reusing the sweep
engine's process fan-out) and emits the curve as JSON.  Everything is
sim-time deterministic: repeat runs, any ``-j``, and every installed
accel backend produce byte-identical reports; printed output and the
bench document name the active backend (``accel.backend``) for
attribution.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Tuple

from repro import accel
from repro.analysis.report import render_table
from repro.errors import ServeError
from repro.serve.spec import ARRIVAL_MODELS, ServeSpec

if TYPE_CHECKING:
    from repro.serve.fleet import ServiceTimeTable

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="serve_command", required=True)

    run = sub.add_parser(
        "run", help="serve one scenario and print its SLO report")
    _add_spec_arguments(run)
    run.add_argument("--json", default=None, metavar="FILE",
                     help="also write the SLO report as JSON to FILE")
    run.add_argument("--metrics", action="store_true",
                     help="print the serve.* metrics registry after "
                          "the run")
    run.add_argument("--sanitize", action="store_true",
                     help="re-run under the S903 determinism "
                          "sanitizer (seeded same-instant "
                          "perturbation; findings fail the command)")

    bench = sub.add_parser(
        "bench", help="sweep the scenario across load levels (SLO "
                      "curve)")
    _add_spec_arguments(bench)
    bench.add_argument("--loads", default=None, metavar="F[,F...]",
                       help="offered-load fractions to sweep "
                            "(default: 0.5,1,2,4,8)")
    bench.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes (default 1: serial)")
    bench.add_argument("--output", default=None, metavar="FILE",
                       help="write the bench document as JSON to FILE")
    bench.add_argument("--metrics", action="store_true",
                       help="print the merged serve.* metrics "
                            "roll-up")


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--boards", type=int, default=4,
                        help="fleet size (default 4)")
    parser.add_argument("--controller", default="UPaRC_i",
                        help="reconfiguration controller (default "
                             "UPaRC_i)")
    parser.add_argument("--frequency-mhz", type=float, default=362.5,
                        help="ICAP clock (default 362.5)")
    parser.add_argument("--arrival", choices=ARRIVAL_MODELS,
                        default="poisson",
                        help="arrival process (default poisson)")
    parser.add_argument("--load", type=float, default=0.8,
                        help="offered load as a fraction of cold-"
                             "service capacity (default 0.8)")
    parser.add_argument("--rate-rps", type=float, default=0.0,
                        help="explicit aggregate rate in req/s "
                             "(overrides --load)")
    parser.add_argument("--requests", type=int, default=10_000,
                        help="stream length (default 10000)")
    parser.add_argument("--seed", type=int, default=2012,
                        help="workload seed (default 2012)")
    parser.add_argument("--queue-limit", type=int, default=512,
                        help="global queue bound (default 512)")
    parser.add_argument("--tenant-limit", type=int, default=256,
                        help="per-tenant queue bound (default 256)")
    parser.add_argument("--batch-limit", type=int, default=8,
                        help="max requests per coalesced dispatch "
                             "(default 8)")
    parser.add_argument("--shed-infeasible", action="store_true",
                        help="shed requests whose deadline cannot be "
                             "met even if dispatched immediately")
    parser.add_argument("--preempt", action="store_true",
                        help="let priority-0 requests preempt "
                             "background service")


def _spec_from_args(args: argparse.Namespace) -> ServeSpec:
    return ServeSpec(
        boards=args.boards,
        controller=args.controller,
        frequency_mhz=args.frequency_mhz,
        arrival=args.arrival,
        load=args.load,
        rate_rps=args.rate_rps,
        requests=args.requests,
        seed=args.seed,
        queue_limit=args.queue_limit,
        tenant_limit=args.tenant_limit,
        batch_limit=args.batch_limit,
        shed_infeasible=args.shed_infeasible,
        preempt=args.preempt,
    )


def _parse_loads(raw: str) -> Tuple[float, ...]:
    try:
        loads = tuple(float(part) for part in raw.split(",") if part)
    except ValueError:
        loads = ()
    if not loads:
        raise ServeError(f"--loads {raw!r}: expected comma-separated "
                         f"numbers such as 0.5,1,2")
    return loads


def _print_report(report) -> None:
    data = report.to_dict()
    latency = data["latency_us"]
    rows = [
        ["requests", data["requests"]],
        ["completed", data["completed"]],
        ["shed", f"{data['shed']} ({data['shed_pct']:.2f}%)"],
        ["deadline missed",
         f"{data['deadline_missed']} "
         f"({data['deadline_miss_pct']:.2f}%)"],
        ["throughput", f"{data['throughput_rps']:.0f} req/s"],
        ["goodput", f"{data['goodput_rps']:.0f} req/s"],
        ["latency p50/p95/p99",
         f"{latency['p50']:.1f} / {latency['p95']:.1f} / "
         f"{latency['p99']:.1f} us"],
        ["warm completions", data["warm_completions"]],
        ["batches", data["batches"]],
        ["preemptions", data["preemptions"]],
        ["makespan", f"{data['makespan_s'] * 1e3:.3f} ms (sim)"],
        # Attribution only: the report JSON and its digest stay
        # backend-free (they are byte-identical across backends).
        ["accel.backend", accel.backend_name()],
    ]
    print(render_table(["SLO", "value"], rows,
                       title=f"serve -- {data['spec_key']}"))
    tenant_rows = [[name, stats["completed"], stats["shed"],
                    stats["deadline_missed"],
                    f"{stats['p95_us']:.1f} us"]
                   for name, stats in sorted(data["tenants"].items())]
    print()
    print(render_table(
        ["tenant", "completed", "shed", "missed", "p95"],
        tenant_rows, title="per-tenant"))


def _serve_once(args: argparse.Namespace,
                table: Optional["ServiceTimeTable"] = None) -> int:
    from repro.serve.fleet import ServiceTimeTable
    from repro.serve.service import FleetService
    from repro.serve.slo import build_report
    from repro.serve.workload import generate_requests

    spec = _spec_from_args(args)
    if table is None:
        table = ServiceTimeTable(spec)
    requests = generate_requests(spec, table.resolved_rate_rps())
    outcome = FleetService(spec, table=table).run(requests)
    report = build_report(outcome)
    _print_report(report)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"\nreport written to {args.json}")
    return EXIT_CLEAN


def _run_serve_run(args: argparse.Namespace) -> int:
    if args.sanitize:
        from repro.sanitize.cli import run_sanitized_command
        from repro.serve.fleet import ServiceTimeTable

        # Measure the cold service times once, before the sanitized
        # runs: left to the runs, only the first would simulate them
        # (the rest hit fleet's process-wide memo) and its event
        # stream would differ from every perturbed run's.
        table = ServiceTimeTable(_spec_from_args(args))
        return run_sanitized_command(
            lambda run_args: _serve_once(run_args, table), args,
            "serve run")
    if args.metrics:
        from repro import obs
        with obs.observed(metrics=True) as observation:
            result = _serve_once(args)
        print()
        print(render_table(
            ["metric", "kind", "value"],
            observation.registry.rows(),
            title="metrics -- serve run"))
        return result
    return _serve_once(args)


def _run_serve_bench(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.bench import bench_serve, render_bench

    document = bench_serve(_spec_from_args(args),
                           loads=_bench_loads(args), jobs=args.jobs)
    rows = []
    for cell in document["levels"]:
        report = cell["report"]
        latency = report["latency_us"]
        rows.append([
            f"{cell['load']:g}", f"{cell['rate_rps']:.0f}",
            f"{report['throughput_rps']:.0f}",
            f"{report['goodput_rps']:.0f}",
            f"{latency['p50']:.1f}", f"{latency['p99']:.1f}",
            f"{report['deadline_miss_pct']:.2f}",
            f"{report['shed_pct']:.2f}",
        ])
    print(render_table(
        ["load", "req/s", "thr", "goodput", "p50 us", "p99 us",
         "miss %", "shed %"],
        rows, title=f"serve bench -- {document['base_key']}"))
    print(f"\n{document['total_requests']} requests across "
          f"{len(document['levels'])} load levels in "
          f"{document['_wall_s']:.2f} s of cell time (-j {args.jobs}, "
          f"accel.backend={document['accel.backend']})")
    if args.metrics:
        registry = MetricsRegistry()
        registry.merge_snapshot(document["merged_metrics"])
        print()
        print(render_table(
            ["metric", "kind", "value"],
            registry.rows(),
            title="merged serve metrics (deterministic for any -j)"))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(render_bench(document))
            handle.write("\n")
        print(f"\nbench document written to {args.output}")
    return EXIT_CLEAN


def _bench_loads(args: argparse.Namespace) -> Tuple[float, ...]:
    from repro.serve.bench import DEFAULT_LOADS

    return _parse_loads(args.loads) if args.loads else DEFAULT_LOADS


def run_serve(args: argparse.Namespace) -> int:
    # Invalid spec fields and load lists are usage errors: report them
    # before any work starts, without a traceback.
    try:
        spec = _spec_from_args(args)
        if args.serve_command == "bench":
            for load in _bench_loads(args):
                spec.with_load(load)
    except ServeError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.serve_command == "run":
        return _run_serve_run(args)
    if args.serve_command == "bench":
        return _run_serve_bench(args)
    raise ServeError(f"unknown serve command {args.serve_command!r}")
