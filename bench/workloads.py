"""The five benchmark workloads and the workload-process entry point.

A workload is a set-up (imports, generated inputs, service-time
tables, one warm-up op) followed by a closed loop with one client: the
next op starts when the previous one returns, cycling through a fixed
schedule of op kinds until the op count or the time budget runs out.
Host times are reported twice: as wall time, and as nominal time —
wall time corrected by a tiny fixed computation timed while the op
runs (:class:`HostSpeed`).  Only nominal times are judged.  Every op
is checked — intrinsically at any seed, and against ``goldens.json``
at the default seed — and a failed op is counted, never timed.
Workloads reach the program only through public entry
points of ``repro.bitstream``, ``repro.core``, ``repro.sweep``,
``repro.compress`` and ``repro.serve``, always through the module
attribute so the tracer's wrappers see the call.

Run one workload in this process with :func:`run_workload`; the
harness runs each in a fresh process with::

    python -m bench.workloads --workload mode_ii --seed 2012 --seconds 15
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from bench.tracing import (
    ACCEL_KERNELS,
    SPAN_OPS,
    UNWRAPPED_KERNELS,
    LayerTracer,
    accel_boundary,
)

DEFAULT_SEED = 2012
GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")

#: Paper anchors of Fig. 5: efficiency (% of theoretical) at 362.5 MHz.
FIG5_ANCHORS = {6.5: 78.8, 247.0: 99.0}

Fingerprint = Any
Info = Dict[str, float]


class OpFailed(Exception):
    """An op returned, but its intrinsic check failed."""


_PROBE_INPUT = tuple(range(512))

#: Per-kind samples: op kind -> one value per successful op.
Samples = Dict[str, List[float]]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _typical(samples: Samples) -> float:
    """Geometric mean over kinds of each kind's median sample."""
    return geomean([statistics.median(values) for values in samples.values()])


def probe_s() -> float:
    """Seconds for a tiny fixed piece of interpreter work (tens of us)."""
    start = time.perf_counter()
    table = {}
    total = 0
    for value in _PROBE_INPUT:
        total += value * value % 7
        table[value & 255] = total
    return time.perf_counter() - start


class HostSpeed:
    """Converts wall time into *nominal* time, taken at a fixed host speed.

    A core shared with other tenants changes speed by tens of percent
    within a second, so a span's wall time says as much about the host
    as about the program.  While a span is measured an interval timer
    fires :func:`probe_s` every ``INTERVAL_S``, and one more probe runs
    right after it (covering spans shorter than the interval).  The
    probes sample the host's speed evenly over the span, so their mean
    time tracks the slowdown the span suffered, bursts included, and
    the span's wall time scaled by ``NOMINAL_PROBE_S`` over that mean
    tracks the program's cost far more steadily than the wall time does
    (README.md has the spreads of both).  Signals only reach the main
    thread, so measured spans must run there.
    """

    INTERVAL_S = 0.002
    #: About the probe's time on an idle core of the baseline host
    #: (x86-64, CPython 3.11).  Any constant works: it sets the scale.
    NOMINAL_PROBE_S = 40e-6

    def __init__(self) -> None:
        self._samples: List[float] = []
        self.last_probe_s = 0.0

    def _sample(self, signum: int, frame: Any) -> None:
        self._samples.append(probe_s())

    @contextmanager
    def measuring(self) -> Iterator[None]:
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def nominal(self, wall_s: float) -> float:
        """``wall_s`` of the span just measured, in nominal seconds."""
        self._samples.append(probe_s())
        self.last_probe_s = statistics.mean(self._samples)
        return wall_s * self.NOMINAL_PROBE_S / self.last_probe_s


# -- workloads --------------------------------------------------------


class Workload:
    """One named input set: ``setup`` once, then ``op`` per schedule slot.

    ``schedule`` is one cycle of op kinds; a kind names one distinct
    input, and timings are aggregated per kind before they are
    combined, so a partly completed cycle does not bias the result.
    ``boundaries`` are the traced layers the workload must exercise.
    """

    boundaries: Tuple[str, ...] = ()
    schedule: List[str]

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self, kind: str) -> Tuple[Fingerprint, Info]:
        raise NotImplementedError

    def metrics(self, nominal: Samples,
                info: Dict[str, Info]) -> Dict[str, Tuple[float, str]]:
        """Workload-specific metrics from nominal op seconds per kind."""
        return {}


_DATAPATH_BOUNDARIES = (
    "bitstream.plan", "bitstream.synthesize", "bitstream.generate",
    "bitstream.parse", "fpga.bram_preload", "fpga.icap_absorb",
    "fpga.config_feed", "core.system_init", "core.preload",
    "core.reconfigure", "power.finalize", "power.energy", "sim.run",
)


class ModeII(Workload):
    """Generate a 216.5 KB bitstream, then one compressed (mode ii) run."""

    boundaries = _DATAPATH_BOUNDARIES + ("compress.encode", "compress.decode")
    SIZE_KB = 216.5
    FREQUENCY_MHZ = 255.0
    SEEDS = 8

    def setup(self, seed: int) -> None:
        from repro.bitstream import generator
        from repro.core import system
        from repro.core.urec import OperationMode
        from repro.units import DataSize, Frequency

        self._generator = generator
        self._system = system
        self._mode = OperationMode.COMPRESSED
        self._size = DataSize.from_kb(self.SIZE_KB)
        self._frequency = Frequency.from_mhz(self.FREQUENCY_MHZ)
        self.schedule = [f"s{seed + index}" for index in range(self.SEEDS)]

    def op(self, kind: str) -> Tuple[Fingerprint, Info]:
        bitstream = self._generator.generate_bitstream(size=self._size,
                                                       seed=int(kind[1:]))
        result = self._system.UPaRCSystem().run(
            bitstream, frequency=self._frequency, mode=self._mode)
        if not result.verified:
            raise OpFailed("reconfiguration not CRC-verified")
        stored = result.stored_size.bytes
        return ([result.transfer_ps, stored, result.payload_crc],
                {"transfer_us": result.transfer_ps / 1e6,
                 "stored_ratio": stored / bitstream.size.bytes})

    def metrics(self, nominal, info):
        found = {}
        flat = [value for values in nominal.values() for value in values]
        if len(flat) >= 100:  # ten or more samples beyond the p90
            found["reconfig_p90_ms"] = (
                statistics.quantiles(flat, n=10)[-1] * 1e3, "ms")
        base = info.get(self.schedule[0])
        if base is not None:
            found["sim_reconfig_us"] = (base["transfer_us"], "us")
        return found


class Fig5(Workload):
    """The 49-cell Fig. 5 grid: UPaRC_i raw, 7 sizes x 7 frequencies."""

    boundaries = _DATAPATH_BOUNDARIES + ("controllers.reconfigure",
                                         "sweep.execute_spec")

    def setup(self, seed: int) -> None:
        from repro.sweep import engine
        from repro.sweep.spec import FIG5_GRID, PayloadSpec

        self._engine = engine
        grid = dataclasses.replace(FIG5_GRID, payloads=tuple(
            PayloadSpec(size_kb=payload.size_kb, seed=seed)
            for payload in FIG5_GRID.payloads))
        self._specs = {spec.key: spec for spec in grid.expand()}
        self.schedule = list(self._specs)

    def op(self, kind: str) -> Tuple[Fingerprint, Info]:
        spec = self._specs[kind]
        result, _ = self._engine.execute_spec(spec)
        if not result.verified:
            raise OpFailed("reconfiguration not CRC-verified")
        efficiency = result.effective_mbps / result.theoretical_mbps * 100.0
        return ([result.duration_ps, result.payload_crc],
                {"size_kb": spec.payload.size_kb,
                 "frequency_mhz": spec.frequency_mhz,
                 "efficiency_pct": efficiency})

    def metrics(self, nominal, info):
        errors = [abs(cell["efficiency_pct"] - FIG5_ANCHORS[cell["size_kb"]])
                  for cell in info.values()
                  if cell["frequency_mhz"] == 362.5
                  and cell["size_kb"] in FIG5_ANCHORS]
        if len(errors) < len(FIG5_ANCHORS):
            return {}
        return {"paper_err_pp": (max(errors), "pp")}


class Table1Codecs(Workload):
    """Round-trip of every Table I codec over the Table I corpus."""

    boundaries = ("compress.encode", "compress.decode")
    #: Repeats per schedule cycle, so each codec gets a comparable
    #: share of the run: the fast codecs take a few ms per op, the LZ
    #: stand-ins for Zip and 7-zip take 0.1-1 s.
    REPEATS = {"RLE": 16, "LZ77": 40, "Huffman": 10, "X-MatchPRO": 80,
               "LZ78": 1, "Zip": 1, "7-zip": 1}

    def setup(self, seed: int) -> None:
        from repro.bitstream import generator
        from repro.compress.registry import PAPER_TABLE1_RATIOS, codec_by_name
        from repro.sweep.spec import TABLE1_PAYLOADS
        from repro.units import DataSize

        self._paper = PAPER_TABLE1_RATIOS
        self._raw: Dict[str, bytes] = {}
        for payload in TABLE1_PAYLOADS:
            payload_seed = payload.seed + seed - DEFAULT_SEED
            spec = generator.BitstreamSpec(
                size=DataSize.from_kb(payload.size_kb), seed=payload_seed)
            self._raw[f"{payload.size_kb:g}kb-s{payload_seed}"] = \
                generator.generate_bitstream(spec).raw_bytes
        self._codecs = {name: codec_by_name(name)
                        for name in PAPER_TABLE1_RATIOS}
        self.schedule = [f"{codec}/{label}"
                         for cycle in range(max(self.REPEATS.values()))
                         for codec in self._codecs
                         if cycle < self.REPEATS[codec]
                         for label in self._raw]

    def op(self, kind: str) -> Tuple[Fingerprint, Info]:
        codec_name, label = kind.split("/")
        raw = self._raw[label]
        codec = self._codecs[codec_name]
        packed = codec.compress(raw)
        if codec.decompress(packed) != raw:
            raise OpFailed("round trip changed the bytes")
        return (hashlib.sha256(packed).hexdigest(),
                {"raw_bytes": len(raw), "packed_bytes": len(packed)})

    def metrics(self, nominal, info):
        found = {}
        rates = []
        errors = []
        for codec in self._codecs:
            kinds = [f"{codec}/{label}" for label in self._raw]
            if not all(kind in nominal for kind in kinds):
                continue
            raw = sum(info[kind]["raw_bytes"] for kind in kinds)
            rates.append(raw / 1e6 / sum(statistics.median(nominal[kind])
                                         for kind in kinds))
            ratio = statistics.mean(
                (1.0 - info[kind]["packed_bytes"] / info[kind]["raw_bytes"])
                * 100.0 for kind in kinds)
            errors.append(abs(ratio - self._paper[codec]))
        if rates:
            found["codec_mb_s"] = (geomean(rates), "MB/s")
        if len(errors) == len(self._codecs):
            found["paper_err_pp"] = (max(errors), "pp")
        return found


class Serve(Workload):
    """One replay: generate a request stream, serve it, report SLOs."""

    boundaries = ("serve.workload", "serve.run", "serve.pass",
                  "serve.admission", "serve.scheduler", "serve.report",
                  "sim.run", "fpga.fleet_reconfigure")
    REQUESTS = 20_000
    SEEDS = 4

    def __init__(self, **fields: Any) -> None:
        self._fields = fields

    def setup(self, seed: int) -> None:
        from repro.serve import fleet, service, slo
        from repro.serve import workload as serve_workload
        from repro.serve.spec import ServeSpec

        self._service = service
        self._slo = slo
        self._workload = serve_workload
        self._specs = {f"s{seed + index}": ServeSpec(
            requests=self.REQUESTS, seed=seed + index, **self._fields)
            for index in range(self.SEEDS)}
        self.schedule = list(self._specs)
        # Service times and the offered rate depend on the fleet and
        # the catalog, not on the seed: measure them once.
        self._table = fleet.ServiceTimeTable(self._specs[self.schedule[0]])
        self._rate = self._table.resolved_rate_rps()

    def op(self, kind: str) -> Tuple[Fingerprint, Info]:
        spec = self._specs[kind]
        requests = self._workload.generate_requests(spec, self._rate)
        outcome = self._service.FleetService(spec, table=self._table).run(
            requests)
        report = self._slo.build_report(outcome)
        if report.completed + report.shed != report.requests:
            raise OpFailed(f"{report.completed} completed + {report.shed} "
                           f"shed != {report.requests} requests")
        return report.digest, {"p99_us": report.latency_us["p99"],
                               "goodput_rps": report.goodput_rps}

    def metrics(self, nominal, info):
        found = {}
        if nominal:
            found["serve_req_s"] = (self.REQUESTS / _typical(nominal),
                                    "req/s")
        base = info.get(self.schedule[0])
        if base is not None:
            found["sim_p99_us"] = (base["p99_us"], "us")
            found["sim_goodput_rps"] = (base["goodput_rps"], "req/s")
        return found


WORKLOADS = {
    "mode_ii": ModeII,
    "fig5": Fig5,
    "table1_codecs": Table1Codecs,
    "serve_steady": lambda: Serve(load=2.0),
    "serve_overload": lambda: Serve(load=8.0, arrival="burst",
                                    preempt=True),
}


def load_goldens() -> Dict[str, Any]:
    with open(GOLDENS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- the closed loop --------------------------------------------------


class _Ledger:
    """Attempts, failures and first fingerprint per kind."""

    def __init__(self, workload: Workload,
                 expected: Optional[Dict[str, Fingerprint]]) -> None:
        self._workload = workload
        self._expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.fingerprints: Dict[str, Fingerprint] = {}
        self.info: Dict[str, Info] = {}

    def attempt(self, kind: str) -> Optional[float]:
        """Run one op; its wall seconds, or ``None`` if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            fingerprint, info = self._workload.op(kind)
        except Exception as error:  # a failing op is counted, not fatal
            self._fail(f"{kind}: {type(error).__name__}: {error}")
            return None
        elapsed = time.perf_counter() - start
        fingerprint = json.loads(json.dumps(fingerprint))
        if self._expected is not None \
                and self._expected.get(kind) != fingerprint:
            self._fail(f"{kind}: {fingerprint!r} differs from golden "
                       f"{self._expected.get(kind)!r}")
            return None
        self.fingerprints.setdefault(kind, fingerprint)
        self.info.setdefault(kind, info)
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


@contextmanager
def _traced(tracer: LayerTracer, registry: Any) -> Iterator[None]:
    """Wrappers, metrics registry and kernel observers on, for one phase."""
    from repro import obs
    from repro.obs import KernelObserver, TraceScope
    from repro.sim import kernel

    def observe(sim: Any) -> None:
        sim.observer = KernelObserver(TraceScope(sim), registry)

    previous_hook = kernel.set_construction_hook(observe)
    obs.install(registry=registry)
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        obs.install()
        kernel.set_construction_hook(previous_hook)


@contextmanager
def _settled_heap() -> Iterator[None]:
    """The same collector state at the start of every op.

    Set-up objects are frozen out of the collector's view, and the
    caller collects each op's leftovers before the next op's timer
    starts, so a cyclic collection inside an op scans only that op's
    objects and does not land in one op or the next by chance.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_workload(name: str, seed: int = DEFAULT_SEED,
                 ops: Optional[int] = None, seconds: Optional[float] = None,
                 trace: bool = False, backend: Optional[str] = None,
                 goldens: Optional[Dict[str, Any]] = None,
                 chrome_trace: Optional[str] = None) -> Dict[str, Any]:
    """Set up and run one workload in this process; the result document.

    The loop stops after ``ops`` timed ops or ``seconds`` of wall time,
    whichever comes first.  ``backend`` selects the accel backend as
    part of set-up (the harness passes ``native``; selection failure
    raises).  With ``trace`` every op slot runs twice — untraced, then
    traced — and the document adds per-layer numbers and the soundness
    findings.
    """
    if ops is None and seconds is None:
        raise ValueError("give an op count, a time budget, or both")
    speed = HostSpeed()
    started = time.perf_counter()
    with speed.measuring():
        from repro import accel
        if backend is not None:
            accel.select(backend)
        goldens = load_goldens() if goldens is None else goldens
        workload = WORKLOADS[name]()
        expected = (goldens.get(name, {})
                    if seed == goldens.get("seed") else None)
        ledger = _Ledger(workload, expected)
        tracer = None
        if trace:
            from repro.obs import MetricsRegistry
            tracer = LayerTracer()
            setup_registry = MetricsRegistry()
            op_registry = MetricsRegistry()
            tracer.begin_op("setup", keep_spans=False)
            with _traced(tracer, setup_registry):
                workload.setup(seed)
                ledger.attempt(workload.schedule[0])
            tracer.end_op()
            setup_stats = tracer.take_phase()
        else:
            workload.setup(seed)
            ledger.attempt(workload.schedule[0])
    setup_wall_s = time.perf_counter() - started
    setup_s = speed.nominal(setup_wall_s)

    wall: Samples = {}
    nominal: Samples = {}
    traced: Samples = {}
    probes: List[float] = []
    traced_ops = 0
    traced_wall_s = 0.0
    harness_s = 0.0
    deadline = None if seconds is None else time.perf_counter() + seconds
    index = 0
    with _settled_heap():
        while (ops is None or index < ops) \
                and (deadline is None or time.perf_counter() < deadline):
            kind = workload.schedule[index % len(workload.schedule)]
            gc.collect()
            with speed.measuring():
                elapsed = ledger.attempt(kind)
            if elapsed is not None:
                wall.setdefault(kind, []).append(elapsed)
                nominal.setdefault(kind, []).append(speed.nominal(elapsed))
                probes.append(speed.last_probe_s)
            if tracer is not None:
                gc.collect()
                with _traced(tracer, op_registry), speed.measuring():
                    tracer.begin_op(str(index), keep_spans=index < SPAN_OPS)
                    ok = ledger.attempt(kind) is not None
                    wall_s, uncovered_s = tracer.end_op()
                traced_ops += 1
                traced_wall_s += wall_s
                harness_s += uncovered_s
                if ok:
                    traced.setdefault(kind, []).append(
                        speed.nominal(wall_s))
            index += 1

    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (setup_s, "s"),
        "setup_wall_s": (setup_wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "error_rate": (ledger.failed / ledger.attempted, "fraction"),
    }
    if nominal:
        metrics["op_p50_ms"] = (_typical(nominal) * 1e3, "ms")
        metrics["op_wall_p50_ms"] = (_typical(wall) * 1e3, "ms")
        metrics["probe_us"] = (statistics.median(probes) * 1e6, "us")
    metrics.update(workload.metrics(nominal, ledger.info))

    document: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "mode": "trace" if trace else "run",
        "backend": accel.backend_name(),
        "repro": os.path.dirname(os.path.abspath(accel.__file__)),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "timed_ops": sum(len(values) for values in wall.values()),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in sorted(metrics.items())},
        "fingerprints": ledger.fingerprints,
    }
    if tracer is not None:
        document.update(_layer_report(
            workload, tracer, setup_stats, tracer.take_phase(),
            setup_registry.snapshot()["counters"],
            op_registry.snapshot()["counters"],
            traced_ops, traced_wall_s, harness_s, nominal, traced,
            ledger.info))
        if chrome_trace is not None:
            tracer.write_chrome_trace(chrome_trace)
    return document


def _layer_report(workload: Workload, tracer: LayerTracer,
                  setup_stats: Dict[str, Tuple[int, float, int]],
                  op_stats: Dict[str, Tuple[int, float, int]],
                  setup_counters: Dict[str, int],
                  op_counters: Dict[str, int],
                  ops: int, wall_s: float, harness_s: float,
                  untraced: Dict[str, List[float]],
                  traced: Dict[str, List[float]],
                  info: Dict[str, Info]) -> Dict[str, Any]:
    """Per-op layer numbers, derived ratios and soundness findings."""
    cost_s = tracer.call_cost_s()
    per_op = max(1, ops)
    layers: Dict[str, Dict[str, float]] = {}
    for name in tracer.names:
        calls, self_s, _ = op_stats[name]
        layers[name] = {
            "calls": calls / per_op,
            "self_ms": self_s / per_op * 1e3,
            "share": self_s / wall_s * 100.0 if wall_s else 0.0,
            "wrapper_ms": calls / per_op * cost_s * 1e3,
        }
    prefix = f"accel.{tracer.backend}."
    for kernel in ACCEL_KERNELS + UNWRAPPED_KERNELS:
        entry = layers.setdefault(accel_boundary(kernel), {
            "calls": op_counters.get(prefix + kernel + ".calls", 0) / per_op,
            "self_ms": 0.0, "share": 0.0, "wrapper_ms": 0.0})
        entry["bytes"] = op_counters.get(prefix + kernel + ".bytes", 0) / per_op
    layers["harness"] = {
        "calls": 1.0, "self_ms": harness_s / per_op * 1e3,
        "share": harness_s / wall_s * 100.0 if wall_s else 0.0,
        "wrapper_ms": 0.0}

    def ratio(numerator: str, denominator: str) -> float:
        bottom = op_counters.get(denominator, 0)
        return op_counters.get(numerator, 0) / bottom if bottom else 0.0

    events = op_counters.get("kernel.events_dispatched", 0)
    sim_self_s = op_stats["sim.run"][1]
    paired = [statistics.median(traced[kind])
              / statistics.median(untraced[kind])
              for kind in traced if kind in untraced]
    stored = [entry["stored_ratio"] for entry in info.values()
              if "stored_ratio" in entry]
    derived = {
        "sim.events_per_op": (events / per_op, "count"),
        "sim.us_per_event": (sim_self_s / events * 1e6 if events else 0.0,
                             "us"),
        "serve.passes_per_req": (ratio("serve.passes",
                                       "serve.requests.offered"), "ratio"),
        "serve.warm_ratio": (ratio("serve.dispatch.warm",
                                   "serve.dispatch.batches"), "ratio"),
        "serve.stale_ratio": (ratio("serve.completions.stale",
                                    "serve.dispatch.batches"), "ratio"),
        "compress.stored_ratio": (statistics.mean(stored) if stored else 0.0,
                                  "ratio"),
        "trace.overhead_pct": ((geomean(paired) - 1.0) * 100.0
                               if paired else 0.0, "%"),
        "trace.call_cost_ns": (cost_s * 1e9, "ns"),
    }

    findings = []
    for name in workload.boundaries:
        if op_stats[name][0] + setup_stats[name][0] == 0:
            findings.append(f"boundary {name} recorded no calls")
    for kernel in ACCEL_KERNELS:
        boundary = accel_boundary(kernel)
        wrapped = sum(stats[boundary][0] - stats[boundary][2]
                      for stats in (op_stats, setup_stats))
        counted = (op_counters.get(prefix + kernel + ".calls", 0)
                   + setup_counters.get(prefix + kernel + ".calls", 0))
        if wrapped != counted:
            findings.append(f"{boundary}: wrapper saw {wrapped} dispatched "
                            f"calls, the program counted {counted}")
    return {
        "traced_ops": ops,
        "layers": layers,
        "setup_layers": {name: {"calls": calls, "self_ms": self_s * 1e3}
                         for name, (calls, self_s, _) in setup_stats.items()
                         if calls},
        "derived": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in derived.items()},
        "soundness": findings,
    }


# -- process entry point ----------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one bench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and warm up, then stop (no timed ops)")
    parser.add_argument("--chrome-trace", default=None)
    args = parser.parse_args(argv)
    document = run_workload(args.workload, seed=args.seed,
                            ops=0 if args.setup_only else None,
                            seconds=args.seconds, trace=args.trace,
                            backend="native", chrome_trace=args.chrome_trace)
    sys.stdout.write(json.dumps(document) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
