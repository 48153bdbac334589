"""Layer-boundary tracing, driven from outside the program.

``python -m bench trace`` wraps the public callables at each layer
boundary of ``repro`` — a class attribute, or a module-level function
together with every module that bound it at import time — and records,
per boundary, the calls made and the *self* time spent (span time
minus the time of wrapped callees).  Nothing under ``src/`` carries
tracing code: the wrappers are installed for each traced op and
removed for the untraced op run beside it, so both halves of a trace
run execute the same program.

The program's own metrics registry is installed only while a traced
op runs.  Its ``accel.<backend>.<kernel>`` counters are the reference
the wrapper counts are checked against, and its ``kernel.*`` and
``serve.*`` counters give the derived per-layer ratios.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Boundary name -> (module, attribute path) of the wrapped callable.
#: A dotted path is a class attribute; a bare name is a module-level
#: function, also replaced in every ``repro`` module that imported it.
BOUNDARIES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "bitstream.plan": (("repro.bitstream.generator",
                        "_FrameSynthesizer.plan"),),
    "bitstream.generate": (("repro.bitstream.generator",
                            "generate_bitstream"),),
    "bitstream.parse": (("repro.bitstream.parser", "BitstreamParser.parse"),),
    "compress.encode": (("repro.fpga.decompressor",
                         "HardwareDecompressor.compress_offline"),),
    "compress.decode": (("repro.fpga.decompressor",
                         "HardwareDecompressor.expand"),),
    "fpga.bram_preload": (("repro.fpga.bram", "Bram.preload"),),
    "fpga.icap_absorb": (("repro.fpga.icap", "Icap.absorb"),),
    "fpga.config_feed": (("repro.fpga.config_memory",
                          "ConfigurationLogic.feed_words"),),
    "fpga.fleet_reconfigure": (("repro.fpga.fleet", "FleetBoard.reconfigure"),),
    "core.system_init": (("repro.core.system", "UPaRCSystem.__init__"),),
    "core.preload": (("repro.core.system", "UPaRCSystem.preload"),),
    "core.reconfigure": (("repro.core.system", "UPaRCSystem.reconfigure"),),
    "controllers.reconfigure": (("repro.controllers.uparc",
                                 "UparcController.reconfigure"),),
    "sweep.execute_spec": (("repro.sweep.engine", "execute_spec"),),
    "power.finalize": (("repro.power.trace", "PowerTraceBuilder.finalize"),),
    "power.energy": (("repro.power.energy", "energy_from_trace"),),
    "sim.run": (("repro.sim.kernel", "Simulator.run"),),
    "serve.workload": (("repro.serve.workload", "generate_requests"),),
    "serve.run": (("repro.serve.service", "FleetService.run"),),
    "serve.pass": (("repro.serve.service", "FleetService._pass"),),
    "serve.admission": (("repro.serve.admission", "AdmissionController.offer"),
                        ("repro.serve.admission", "AdmissionController.take"),
                        ("repro.serve.admission",
                         "AdmissionController.match")),
    "serve.scheduler": (("repro.serve.scheduler", "FairScheduler.next_batch"),
                        ("repro.serve.scheduler", "FairScheduler.charge"),
                        ("repro.serve.scheduler",
                         "FairScheduler.pick_board")),
    "serve.report": (("repro.serve.slo", "build_report"),),
}

#: The dispatch kernels of ``repro.accel``, wrapped on the active
#: backend module as ``accel.<kernel>``.  ``synthesize_payload`` is the
#: ``bitstream.synthesize`` boundary.  ``match_lengths`` is left
#: unwrapped: the LZ match search calls it once per input position
#: and records one aggregate per encode, so a per-call wrapper would
#: both dominate the codec's time and disagree with the program's
#: counter by design.  Its time stays in ``compress.encode``.
ACCEL_KERNELS: Tuple[str, ...] = (
    "bitpack", "bytes_to_words", "chunk_words", "crc32c",
    "equal_word_runs", "huffman_code_table", "huffman_decode",
    "huffman_pack", "lz77_decode", "lz77_tokens", "rle_decode",
    "rle_records", "synthesize_payload", "words_to_bytes",
    "xmatch_decode", "xmatch_tokens", "zero_word_runs",
)
UNWRAPPED_KERNELS: Tuple[str, ...] = ("match_lengths",)

#: Modules imported before wrappers are installed, so that every
#: import-time binding of a wrapped function already exists when the
#: loaded modules are scanned for it.
_PRELOAD = ("repro", "repro.serve", "repro.sweep.engine")

#: Spans kept (for the Chrome trace) per op, for the first ops only.
SPAN_OPS = 3
SPANS_PER_OP = 20_000


def accel_boundary(kernel: str) -> str:
    """The boundary name a dispatch kernel is reported under."""
    return ("bitstream.synthesize" if kernel == "synthesize_payload"
            else f"accel.{kernel}")


class LayerTracer:
    """Installs boundary wrappers and aggregates calls and self time.

    The harness brackets each traced op with :meth:`begin_op` and
    :meth:`end_op`; the op's root frame collects the time of top-level
    boundaries, so the remainder is ``harness`` self time (work no
    boundary covers).  Aggregates are per phase: :meth:`take_phase`
    returns and resets them, which keeps set-up work out of the
    per-op numbers.
    """

    def __init__(self) -> None:
        for module in _PRELOAD:
            importlib.import_module(module)
        from repro import accel
        from repro.compress.registry import all_codecs

        self.backend = accel.backend_name()
        self._stats: Dict[str, List[float]] = {}
        self._stack: List[list] = []
        self._op_id: Optional[str] = None
        self._keep = False
        self._kept = 0
        self.spans: List[Tuple[str, float, float, str, str]] = []
        self._patches: List[Tuple[Any, str, Any, Any]] = []

        for name, targets in BOUNDARIES.items():
            for module_name, path in targets:
                self._add(name, importlib.import_module(module_name), path)
        codec_classes = sorted({type(codec) for codec in all_codecs()},
                               key=lambda cls: cls.__name__)
        for cls in codec_classes:
            self._add_attr("compress.encode", cls, "compress")
            self._add_attr("compress.decode", cls, "decompress")
        backend = accel.active()
        for kernel in ACCEL_KERNELS:
            self._add_attr(accel_boundary(kernel), backend, kernel,
                           kernel=True)

    # -- installation -------------------------------------------------

    def _add(self, name: str, module: Any, path: str) -> None:
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            self._add_attr(name, getattr(module, owner_name), attr)
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if (namespace is None
                    or not getattr(loaded, "__name__", "").startswith("repro")):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((loaded, key, original, wrapper))

    def _add_attr(self, name: str, owner: Any, attr: str,
                  kernel: bool = False) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            wrapper: Any = staticmethod(self._wrap(name, raw.__func__))
        else:
            wrapper = self._wrap(name, raw, kernel)
        self._patches.append((owner, attr, raw, wrapper))

    def _wrap(self, name: str, function: Callable,
              kernel: bool = False) -> Callable:
        """A wrapper recording ``[calls, self_s, nested]`` for ``name``.

        ``nested`` counts kernel calls made from inside another kernel:
        a backend calling its own helpers, not a dispatch.
        """
        stats = self._stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0, name, kernel]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stats[0] += 1
                stats[1] += duration - frame[1]
                # The harness keeps a root frame open in every traced
                # phase; a call from outside one still counts, so a
                # binding the uninstall missed shows in the soundness
                # check instead of crashing the program.
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    if kernel and parent[3]:
                        stats[2] += 1
                    if tracer._keep and tracer._kept < SPANS_PER_OP:
                        tracer._kept += 1
                        spans.append((name, frame[0], end, parent[2],
                                      tracer._op_id))

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    @property
    def names(self) -> List[str]:
        return sorted(self._stats)

    # -- ops ----------------------------------------------------------

    def begin_op(self, op_id: str, keep_spans: bool) -> None:
        self._op_id = op_id
        self._keep = keep_spans
        self._kept = 0
        self._stack.append([time.perf_counter(), 0.0, "harness", False])

    def end_op(self) -> Tuple[float, float]:
        """Close the op's root frame: ``(wall_s, harness_self_s)``."""
        end = time.perf_counter()
        start, covered, _, _ = self._stack.pop()
        if self._keep:
            self.spans.append(("harness", start, end, "", self._op_id))
        self._keep = False
        return end - start, end - start - covered

    def take_phase(self) -> Dict[str, Tuple[int, float, int]]:
        """Per boundary ``(calls, self_s, nested)`` since the last call.

        Resets the aggregates.
        """
        taken = {}
        for name, stats in self._stats.items():
            taken[name] = (stats[0], stats[1], stats[2])
            stats[:] = [0, 0.0, 0]
        return taken

    def call_cost_s(self, calls: int = 50_000, repeats: int = 5) -> float:
        """Calibrated cost of one wrapped call around an empty function.

        Measured as wrapped-loop time minus bare-loop time, median over
        ``repeats``; the probe's own stats entry is discarded.
        """
        def probe() -> None:
            return None

        wrapped = self._wrap("trace.calibration", probe)
        costs = []
        self._stack.append([time.perf_counter(), 0.0, "calibration", False])
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(calls):
                    wrapped()
                middle = time.perf_counter()
                for _ in range(calls):
                    probe()
                end = time.perf_counter()
                costs.append(((middle - start) - (end - middle)) / calls)
        finally:
            self._stack.pop()
            del self._stats["trace.calibration"]
        return statistics.median(costs)

    def write_chrome_trace(self, path: str) -> None:
        """The kept spans as a wall-time Chrome trace (one row per op)."""
        if not self.spans:
            return
        origin = min(span[1] for span in self.spans)
        rows: Dict[str, int] = {}
        events = []
        for name, start, end, parent, op_id in self.spans:
            tid = rows.setdefault(op_id, len(rows) + 1)
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": tid,
                "args": {"op": op_id, "parent": parent},
            })
        events += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                    "args": {"name": f"op {op_id}"}}
                   for op_id, tid in rows.items()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
