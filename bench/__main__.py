"""``python -m bench run|trace|compare`` — the benchmark harness.

``run`` and ``trace`` first copy ``src/`` into a private directory
under ``bench/out/`` and build the native backend there, so the
measured program is exactly the checkout's sources; the build is
removed on exit.  Each workload then runs in fresh processes, one at
a time, all on the native backend (a failed build or selection is an
error, never a fallback).  ``run`` measures the end-to-end metrics
with tracing off; set-up is measured in ``SETUPS`` processes and
reported as their median.  ``trace`` is a separate run that wraps the
layer boundaries and reports per-layer numbers, its own overhead, and
the soundness findings; it fails when any finding is present.

The last line of output is the result of the last workload as one JSON
object: ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` names for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from bench.compare import compare, render
from bench.workloads import DEFAULT_SEED, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")
#: Set-up samples per run: one per extra set-up-only process, plus the
#: measuring process itself.
SETUPS = 3
#: Wall time a workload process may take beyond its time budget.
GRACE_S = 100


class BenchError(Exception):
    """The benchmark could not produce a result."""


def build(workdir: str) -> float:
    """Copy ``src/`` into ``workdir`` and build native there; seconds."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise BenchError(f"no program sources at {source}")
    shutil.copytree(source, os.path.join(workdir, "src"),
                    ignore=shutil.ignore_patterns(
                        "__pycache__", "*.egg-info", "*.so", "*.o",
                        "_uparc_native.c"))
    started = time.perf_counter()
    process = subprocess.run(
        [sys.executable, "-m", "repro.accel._native.build"],
        cwd=workdir, env=_environment(workdir), capture_output=True,
        text=True, timeout=600)
    if process.returncode != 0:
        raise BenchError("native build failed:\n" + process.stderr[-3000:])
    return time.perf_counter() - started


def _environment(workdir: str) -> Dict[str, str]:
    environment = dict(os.environ)
    environment.pop("REPRO_BACKEND", None)
    environment["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(workdir, "src"), ROOT])
    # One thread per workload process, and one hash seed for every run.
    environment.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                       OPENBLAS_NUM_THREADS="1")
    return environment


def run_worker(workdir: str, workload: str, seed: int, seconds: float,
               extra: List[str]) -> Dict[str, Any]:
    """One workload process; its result document."""
    command = [sys.executable, "-m", "bench.workloads",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)] + extra
    process = subprocess.run(command, cwd=ROOT,
                             env=_environment(workdir),
                             capture_output=True, text=True,
                             timeout=seconds + GRACE_S)
    if process.returncode != 0:
        raise BenchError(f"{workload} process failed:\n"
                         + process.stderr[-3000:])
    document = json.loads(process.stdout.strip().splitlines()[-1])
    if not document["repro"].startswith(os.path.join(workdir, "src")):
        raise BenchError(f"{workload} imported repro from "
                         f"{document['repro']}, not the built copy")
    return document


def measure(workdir: str, workload: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """Run one workload (traced or not) and complete its document."""
    if trace:
        chrome = os.path.join(OUT, f"{workload}.trace.json")
        document = run_worker(workdir, workload, seed, seconds,
                              ["--trace", "--chrome-trace", chrome])
        document["chrome_trace"] = chrome
        return document
    setups = [run_worker(workdir, workload, seed, seconds,
                         ["--setup-only"])["metrics"]
              for _ in range(SETUPS - 1)]
    document = run_worker(workdir, workload, seed, seconds, [])
    setups.append(document["metrics"])
    for name in ("setup_s", "setup_wall_s"):
        samples = [metrics[name]["value"] for metrics in setups]
        document["metrics"][name]["value"] = statistics.median(samples)
        document[f"{name}_samples"] = samples
    return document


def layer_metrics(document: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """A trace document's per-layer numbers as flat metric entries."""
    units = {"calls": "count", "share": "%", "self_ms": "ms",
             "bytes": "B", "wrapper_ms": "ms"}
    flat = {f"{layer}.{key}": {"value": value, "unit": units[key]}
            for layer, entry in document["layers"].items()
            for key, value in entry.items()}
    flat.update(document["derived"])
    return flat


def result_line(document: Dict[str, Any],
                benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line result of a workload run: the metrics it names."""
    if document["mode"] == "trace":
        available = layer_metrics(document)
        names = [entry["name"] for entry in benchmark["per_layer"]]
    else:
        available = document["metrics"]
        names = [entry["name"] for entry in benchmark["end_to_end"]]
    return {
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: available[name] for name in names},
    }


def _print_run(document: Dict[str, Any]) -> None:
    print(f"== {document['workload']} (seed {document['seed']}, "
          f"{document['timed_ops']} timed ops, backend "
          f"{document['backend']}, build {document['build_s']:.2f} s)")
    for name, entry in document["metrics"].items():
        print(f"  {name:<18} {entry['value']:>14.6g} {entry['unit']}")
    for failure in document["failures"]:
        print(f"  FAILED {failure}")


def _print_trace(document: Dict[str, Any]) -> None:
    cost = document["derived"]["trace.call_cost_ns"]["value"]
    print(f"== {document['workload']} traced ({document['traced_ops']} ops, "
          f"wrapper cost {cost:.0f} ns/call, Chrome trace "
          f"{os.path.relpath(document['chrome_trace'], ROOT)})")
    print(f"  {'layer':<26} {'calls/op':>10} {'self ms/op':>11} "
          f"{'share %':>8} {'wrapper ms':>10} {'bytes/op':>11}")
    layers = sorted(document["layers"].items(),
                    key=lambda item: -item[1]["share"])
    for name, entry in layers:
        if not entry["calls"]:
            continue
        print(f"  {name:<26} {entry['calls']:>10.6g} "
              f"{entry['self_ms']:>11.4f} {entry['share']:>8.2f} "
              f"{entry['wrapper_ms']:>10.4f} "
              f"{entry.get('bytes', 0):>11.6g}")
    for name, entry in document["derived"].items():
        print(f"  {name:<26} {entry['value']:>14.6g} {entry['unit']}")
    for finding in document["soundness"]:
        print(f"  UNSOUND {finding}")


def run_benchmark(workloads: List[str], seed: int, seconds: float,
                  trace: bool, out: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    os.makedirs(out, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="build-", dir=OUT)
    try:
        build_s = build(workdir)
        unsound = False
        line = None
        for workload in workloads:
            started_ns = time.time_ns()
            document = measure(workdir, workload, seed, seconds, trace)
            document.update(build_s=build_s, started_ns=started_ns)
            name = (f"{workload}-s{seed}-{started_ns}"
                    f"{'.layers' if trace else ''}.json")
            with open(os.path.join(out, name), "w",
                      encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
            if trace:
                _print_trace(document)
                unsound = unsound or bool(document["soundness"])
            else:
                _print_run(document)
            line = result_line(document, benchmark)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if unsound:
        print("trace soundness check failed", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        sub = commands.add_parser(command)
        sub.add_argument("--workload", action="append",
                         choices=list(WORKLOADS),
                         help="repeat to select several (default: all)")
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument("--seconds", type=float, default=15.0,
                         help="timed seconds per workload")
        sub.add_argument("--trace", type=int, choices=(0, 1),
                         default=1 if command == "trace" else 0)
        sub.add_argument("--out", default=os.path.join(OUT, "results"),
                         help="directory for the result documents")
    sub = commands.add_parser("compare")
    sub.add_argument("base", help="directory of results A")
    sub.add_argument("new", help="directory of results B")
    args = parser.parse_args(argv)

    if args.command == "compare":
        rows = compare(args.base, args.new)
        print(render(rows))
        return int(any(row["verdict"] in ("worse", "unresolved")
                       for row in rows))
    try:
        return run_benchmark(args.workload or list(WORKLOADS), args.seed,
                             args.seconds, bool(args.trace), args.out)
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
