"""Process-parallel sweep execution with deterministic results.

The engine maps a list of independent :class:`RunSpec` cells onto
worker processes (``jobs > 1``) or runs them inline (``jobs <= 1``).
Determinism is structural, not accidental:

* specs are expanded and sorted by canonical key *before* dispatch,
* ``ProcessPoolExecutor.map`` preserves input order, and
* every cell builds its own fresh simulator, so no state leaks
  between cells regardless of which worker ran them.

A parallel sweep therefore returns the byte-identical result list of
a serial one — same values, same order.  A fresh system per cell also
equals one system preloaded once and retuned per frequency, cell for
cell, because the simulation kernel is integer-picosecond and every
result is a Start-to-Finish difference
(``tests/sweep/test_engine.py`` pins it).

Cells that share a payload share its bitstream: :meth:`SweepEngine.run`
generates each distinct :class:`PayloadSpec` once, in the parent
process, and hands ``(spec, bitstream)`` to every cell that uses it.
Nothing outlives the run — a second ``run()`` generates again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro import accel
from repro.bitstream.generator import (
    BitstreamSpec,
    PartialBitstream,
    generate_bitstream,
)
from repro.controllers import build_controller
from repro.errors import ReproError
from repro.obs import install as obs_install
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Timer
from repro.sweep.spec import COMPRESS_CODECS, PayloadSpec, RunSpec, SweepGrid
from repro.units import DataSize, Frequency


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one sweep cell (picklable, JSON-round-trippable).

    Reconfigure cells fill the bandwidth block; compress cells fill
    the size block.  Unused fields stay ``None``.
    """

    key: str
    workload: str
    size_kb: float
    seed: int
    controller: Optional[str] = None
    frequency_mhz: Optional[float] = None
    codec: Optional[str] = None
    effective_mbps: Optional[float] = None
    theoretical_mbps: Optional[float] = None
    duration_ps: Optional[int] = None
    payload_crc: Optional[int] = None
    frames_written: Optional[int] = None
    verified: Optional[bool] = None
    original_size: Optional[int] = None
    compressed_size: Optional[int] = None
    ratio_percent: Optional[float] = None

    def to_record(self) -> Dict[str, Any]:
        return asdict(self)

    @property
    def efficiency_percent(self) -> float:
        """A reconfigure cell's share of the theoretical bandwidth."""
        return self.effective_mbps / self.theoretical_mbps * 100.0


def _generate(payload: PayloadSpec) -> PartialBitstream:
    """The bitstream a sweep payload denotes (defaults + size/seed)."""
    return generate_bitstream(BitstreamSpec(
        size=DataSize.from_kb(payload.size_kb), seed=payload.seed))


def fan_out(items: List[Any], worker, jobs: int = 1) -> List[Any]:
    """Map ``worker`` over ``items``, preserving input order.

    ``jobs <= 1`` (or fewer than two items) runs inline; otherwise the
    calls fan out across ``jobs`` worker processes.  Like
    ``ProcessPoolExecutor.map``, results come back in input order, so
    parallelism never changes what the caller observes — which is why
    both the sweep engine and ``repro serve bench`` can treat the two
    paths as interchangeable.  ``worker`` must be picklable
    (module-level function or :func:`functools.partial` of one).
    """
    jobs = max(1, int(jobs))
    if jobs == 1 or len(items) <= 1:
        return [worker(item) for item in items]
    # Imported here: it loads multiprocessing (about 10 ms), which the
    # inline runs of `repro table1`/`fig5`/`report` never use.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


def execute_spec(spec: RunSpec,
                 bitstream: Optional[PartialBitstream] = None,
                 ) -> Tuple[SweepResult, PartialBitstream]:
    """Run one cell on ``bitstream`` and return it with the result.

    The payload's bitstream is generated only when none is given.
    Module-level so worker processes can pickle it.
    """
    if bitstream is None:
        bitstream = _generate(spec.payload)
    if spec.workload == "reconfigure":
        controller = build_controller(spec.controller)
        outcome = controller.reconfigure(
            bitstream, Frequency.from_mhz(spec.frequency_mhz))
        theoretical = Frequency.from_mhz(
            spec.frequency_mhz).hertz * 4 / 1e6
        result = SweepResult(
            key=spec.key,
            workload=spec.workload,
            size_kb=spec.payload.size_kb,
            seed=spec.payload.seed,
            controller=spec.controller,
            frequency_mhz=spec.frequency_mhz,
            effective_mbps=outcome.bandwidth_decimal_mbps,
            theoretical_mbps=theoretical,
            duration_ps=outcome.duration_ps,
            payload_crc=outcome.payload_crc,
            frames_written=outcome.frames_written,
            verified=outcome.verified,
        )
    else:
        from repro.compress.registry import codec_by_name
        measure = codec_by_name(spec.codec).measure(bitstream.raw_bytes)
        result = SweepResult(
            key=spec.key,
            workload=spec.workload,
            size_kb=spec.payload.size_kb,
            seed=spec.payload.seed,
            codec=spec.codec,
            original_size=measure.original_size,
            compressed_size=measure.compressed_size,
            ratio_percent=measure.ratio_percent,
        )
    return result, bitstream


def _execute_cell(cell: Tuple[RunSpec, PartialBitstream],
                  collect_metrics: bool = False,
                  backend: Optional[str] = None,
                  ) -> Tuple[SweepResult, Optional[Dict[str, Any]], float]:
    """One cell plus its telemetry; module-level for worker pickling.

    With ``collect_metrics`` a fresh :class:`MetricsRegistry` is
    installed as the process registry for the duration of the cell, so
    the controllers and kernel instrument into it; the cell returns
    the registry's deterministic snapshot for the parent to merge.
    The wall duration is always measured (it is host telemetry,
    reported separately and never merged into deterministic state).

    ``backend`` pins the :mod:`repro.accel` backend in the worker
    process to the parent's resolved choice (worker processes do not
    inherit a ``--backend`` selection made after parent startup).
    Backends are byte-identical, so this never affects results —
    only speed.
    """
    if backend is not None:
        accel.select(backend)
    spec, bitstream = cell
    registry = MetricsRegistry() if collect_metrics else None
    if registry is not None:
        obs_install(registry=registry)
    try:
        with Timer() as timer:
            result, _ = execute_spec(spec, bitstream)
    finally:
        if registry is not None:
            obs_install()
    snapshot: Optional[Dict[str, Any]] = None
    if registry is not None:
        registry.counter("sweep.cells").inc()
        snapshot = registry.snapshot()
    return result, snapshot, timer.elapsed_s


class SweepEngine:
    """Expand a grid (or spec list) and execute it.

    ``jobs <= 1`` runs inline; ``jobs > 1`` fans out across that many
    worker processes.  Results come back sorted by spec key either
    way, so callers never observe scheduling order.
    """

    def __init__(self, grid: Union[SweepGrid, Iterable[RunSpec]],
                 jobs: int = 1,
                 collect_metrics: bool = False) -> None:
        if isinstance(grid, SweepGrid):
            self._specs = grid.expand()
        else:
            self._specs = sorted(grid, key=lambda spec: spec.key)
        keys = [spec.key for spec in self._specs]
        duplicates = {key for key in keys if keys.count(key) > 1}
        if duplicates:
            raise ReproError(
                f"duplicate sweep cells: {', '.join(sorted(duplicates))}")
        self.jobs = max(1, int(jobs))
        self.collect_metrics = collect_metrics
        #: Payload generation plus the merged per-worker metrics from
        #: the last :meth:`run`, identical for every worker count.
        self.registry = MetricsRegistry()
        self.wall_s = 0.0
        #: Fraction of the run's wall-clock capacity spent generating
        #: payloads or inside cells:
        #: (generation + sum(cell durations)) / (elapsed * jobs).
        self.utilization = 0.0

    @property
    def specs(self) -> List[RunSpec]:
        return list(self._specs)

    def _generate_payloads(self) -> Dict[PayloadSpec, PartialBitstream]:
        """Each distinct payload's bitstream, generated once.

        Runs in this process under the run's registry, so ``--metrics``
        counts generation once per payload for any ``-j``.
        """
        if self.collect_metrics:
            obs_install(registry=self.registry)
        try:
            bitstreams: Dict[PayloadSpec, PartialBitstream] = {}
            for spec in self._specs:
                if spec.payload not in bitstreams:
                    bitstreams[spec.payload] = _generate(spec.payload)
            return bitstreams
        finally:
            if self.collect_metrics:
                obs_install()

    def run(self) -> List[SweepResult]:
        """Execute every cell; deterministic result order by key."""
        worker = partial(_execute_cell,
                         collect_metrics=self.collect_metrics,
                         backend=accel.backend_name())
        self.registry = MetricsRegistry()
        with Timer() as timer:
            with Timer() as generation:
                bitstreams = self._generate_payloads()
            cells = [(spec, bitstreams[spec.payload])
                     for spec in self._specs]
            outcomes = fan_out(cells, worker, jobs=self.jobs)
        self.wall_s = timer.elapsed_s
        results = []
        busy_s = generation.elapsed_s
        # `pool.map` preserves spec order, so the merge below folds
        # snapshots in the same (deterministic) order on every run;
        # the merge is commutative anyway, so -jN cannot change it.
        for result, snapshot, cell_wall_s in outcomes:
            results.append(result)
            if snapshot is not None:
                self.registry.merge_snapshot(snapshot)
            busy_s += cell_wall_s
        if self.wall_s > 0 and self._specs:
            self.utilization = busy_s / (self.wall_s * self.jobs)
        results.sort(key=lambda result: result.key)
        return results


def anchor_points(results: Iterable[SweepResult]) -> Dict[str, float]:
    """The two calibration anchors the paper quotes for Fig. 5.

    Efficiency percentages at (6.5 KB, 362.5 MHz) as ``"small"`` and
    (247 KB, 362.5 MHz) as ``"large"``; the paper reports 78.8 % and
    99 %.  Cells outside the two anchors are ignored.
    """
    anchors = {}
    for result in results:
        if result.frequency_mhz != 362.5:
            continue
        if result.size_kb == 6.5:
            anchors["small"] = result.efficiency_percent
        elif result.size_kb == 247.0:
            anchors["large"] = result.efficiency_percent
    return anchors


def table1_ratios(results: Iterable[SweepResult]) -> Dict[str, float]:
    """Mean compression ratio per codec, in Table I row order.

    Each mean sums its cells in ``(size_kb, seed)`` payload order, not
    in key order (which is lexical: 156 KB sorts before 49 KB), so it
    equals a plain loop over the corpus to the last bit.
    """
    by_codec: Dict[str, List[float]] = {}
    for result in sorted(results, key=lambda r: (r.size_kb, r.seed)):
        if result.workload != "compress":
            continue
        by_codec.setdefault(result.codec, []).append(
            result.ratio_percent)
    return {name: sum(by_codec[name]) / len(by_codec[name])
            for name in COMPRESS_CODECS if name in by_codec}
