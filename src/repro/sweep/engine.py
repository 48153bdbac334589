"""Process-parallel sweep execution with deterministic results.

The engine maps a list of independent :class:`RunSpec` cells onto
worker processes (``jobs > 1``) or runs them inline (``jobs <= 1``).
Determinism is structural, not accidental:

* specs are expanded and sorted by canonical key *before* dispatch,
* ``ProcessPoolExecutor.map`` preserves input order, and
* every cell builds its own fresh simulator, so no state leaks
  between cells regardless of which worker ran them.

A parallel sweep therefore returns the byte-identical result list of
a serial one — same values, same order.  (Verified empirically: a
fresh-system-per-cell run of the Fig. 5 grid reproduces
``repro.analysis.bandwidth.bandwidth_surface`` exactly, cell for
cell, because the simulation kernel is integer-picosecond and every
result is a Start-to-Finish difference.)

When a cache directory is given, three artifact kinds are reused
across runs (see :mod:`repro.sweep.cache`): generated bitstreams,
compressed payloads, and finished run records.  Records are safe to
cache because the simulation is fully deterministic — a record key
hashes everything that determines the outcome (generator parameters,
controller, frequency, codec, format version).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro import accel
from repro.analysis.bandwidth import BandwidthPoint
from repro.errors import ReproError
from repro.obs import install as obs_install
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Timer
from repro.sweep.cache import (
    ArtifactCache,
    CACHE_FORMAT_VERSION,
    CacheStats,
    bitstream_params,
)
from repro.sweep.spec import COMPRESS_CODECS, RunSpec, SweepGrid
from repro.units import DataSize, Frequency


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one sweep cell (picklable, JSON-round-trippable).

    Reconfigure cells fill the bandwidth block; compress cells fill
    the size block.  Unused fields stay ``None``.  Floats survive the
    cache's JSON round trip exactly (shortest-roundtrip ``repr``), so
    a cached record compares equal to a freshly computed one.
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

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "SweepResult":
        return SweepResult(**record)


def _payload_spec(spec: RunSpec):
    """The generator spec a sweep payload denotes (defaults + size/seed)."""
    from repro.bitstream.generator import BitstreamSpec
    return BitstreamSpec(size=DataSize.from_kb(spec.payload.size_kb),
                         seed=spec.payload.seed)


def _record_params(spec: RunSpec) -> Dict[str, Any]:
    """Cache identity of a finished run record."""
    params = bitstream_params(_payload_spec(spec))
    params["kind"] = "run-record"
    params["version"] = CACHE_FORMAT_VERSION
    params["workload"] = spec.workload
    params["controller"] = spec.controller
    params["frequency_mhz"] = spec.frequency_mhz
    params["codec"] = spec.codec
    return params


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
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))


def build_controller(name: str):
    """A fresh controller instance for a sweep/serve controller name."""
    from repro.controllers import (
        BramHwicap,
        Farm,
        FlashCap,
        MstIcap,
        UparcController,
        XpsHwicap,
    )
    factories = {
        "UPaRC_i": lambda: UparcController("i"),
        "UPaRC_ii": lambda: UparcController("ii"),
        "xps_hwicap[cached]": lambda: XpsHwicap(profile="cached"),
        "MST_ICAP": MstIcap,
        "FlashCAP_i": FlashCap,
        "BRAM_HWICAP": BramHwicap,
        "FaRM": Farm,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ReproError(
            f"unknown controller {name!r}; known: "
            f"{', '.join(sorted(factories))}") from None
    return factory()


def execute_spec(spec: RunSpec, cache_root: Optional[str] = None,
                 ) -> Tuple[SweepResult, CacheStats]:
    """Run one cell; module-level so worker processes can pickle it."""
    stats = CacheStats()
    cache = ArtifactCache(cache_root) if cache_root else None
    params = _record_params(spec) if cache else None
    if cache is not None:
        record = cache.load_record(params, stats)
        if record is not None:
            stats.hits += 1
            return SweepResult.from_record(record), stats
        stats.misses += 1

    generator_spec = _payload_spec(spec)
    if spec.workload == "reconfigure":
        if cache is not None:
            bitstream = cache.load_bitstream(generator_spec, stats)
        else:
            from repro.bitstream.generator import generate_bitstream
            bitstream = generate_bitstream(generator_spec)
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
        if cache is not None:
            measure = cache.load_compressed(generator_spec, spec.codec,
                                            stats)
        else:
            from repro.bitstream.generator import generate_bitstream
            from repro.compress.registry import codec_by_name
            raw = generate_bitstream(generator_spec).raw_bytes
            measure = codec_by_name(spec.codec).measure(raw)
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

    if cache is not None:
        cache.store_record(params, result.to_record(), stats)
    return result, stats


def _execute_cell(spec: RunSpec, cache_root: Optional[str] = None,
                  collect_metrics: bool = False,
                  backend: Optional[str] = None,
                  ) -> Tuple[SweepResult, CacheStats,
                             Optional[Dict[str, Any]], float]:
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
    Backends are byte-identical, so this never affects results or
    cache keys — only speed.
    """
    if backend is not None:
        accel.select(backend)
    registry = MetricsRegistry() if collect_metrics else None
    if registry is not None:
        obs_install(registry=registry)
    try:
        with Timer() as timer:
            result, stats = execute_spec(spec, cache_root=cache_root)
    finally:
        if registry is not None:
            obs_install()
    snapshot: Optional[Dict[str, Any]] = None
    if registry is not None:
        registry.counter("sweep.cells").inc()
        registry.counter("sweep.cache.hits").inc(stats.hits)
        registry.counter("sweep.cache.misses").inc(stats.misses)
        registry.counter("sweep.cache.bytes_read").inc(stats.bytes_read)
        registry.counter("sweep.cache.bytes_written").inc(
            stats.bytes_written)
        snapshot = registry.snapshot()
    return result, stats, snapshot, timer.elapsed_s


class SweepEngine:
    """Expand a grid (or spec list) and execute it, optionally cached.

    ``jobs <= 1`` runs inline; ``jobs > 1`` fans out across that many
    worker processes.  Results come back sorted by spec key either
    way, so callers never observe scheduling order.
    """

    def __init__(self, grid: Union[SweepGrid, Iterable[RunSpec]],
                 jobs: int = 1,
                 cache_dir: Optional[str] = None,
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
        self.cache_dir = cache_dir
        self.collect_metrics = collect_metrics
        self.stats = CacheStats()
        #: Merged per-worker metrics from the last :meth:`run`,
        #: identical for every worker count.
        self.registry = MetricsRegistry()
        self.wall_s = 0.0
        #: Fraction of the fan-out's wall-clock capacity spent inside
        #: cells: sum(cell durations) / (elapsed * jobs).
        self.utilization = 0.0

    @property
    def specs(self) -> List[RunSpec]:
        return list(self._specs)

    def run(self) -> List[SweepResult]:
        """Execute every cell; deterministic result order by key."""
        worker = partial(_execute_cell, cache_root=self.cache_dir,
                         collect_metrics=self.collect_metrics,
                         backend=accel.backend_name())
        self.stats = CacheStats()
        self.registry = MetricsRegistry()
        with Timer() as timer:
            outcomes = fan_out(self._specs, worker, jobs=self.jobs)
        self.wall_s = timer.elapsed_s
        results = []
        busy_s = 0.0
        # `pool.map` preserves spec order, so the merge below folds
        # snapshots in the same (deterministic) order on every run;
        # the merge is commutative anyway, so -jN cannot change it.
        for result, stats, snapshot, cell_wall_s in outcomes:
            results.append(result)
            self.stats.merge(stats)
            if snapshot is not None:
                self.registry.merge_snapshot(snapshot)
            busy_s += cell_wall_s
        if self.wall_s > 0 and self._specs:
            self.utilization = busy_s / (self.wall_s * self.jobs)
        results.sort(key=lambda result: result.key)
        return results


def to_bandwidth_points(results: Iterable[SweepResult],
                        ) -> List[BandwidthPoint]:
    """Reconfigure results as Fig. 5 surface points."""
    points = []
    for result in results:
        if result.workload != "reconfigure":
            continue
        points.append(BandwidthPoint(
            size=DataSize.from_kb(result.size_kb),
            frequency=Frequency.from_mhz(result.frequency_mhz),
            effective_mbps=result.effective_mbps,
            theoretical_mbps=result.theoretical_mbps,
            duration_ps=result.duration_ps,
        ))
    return points


def table1_ratios(results: Iterable[SweepResult]) -> Dict[str, float]:
    """Mean compression ratio per codec, in Table I row order."""
    by_codec: Dict[str, List[float]] = {}
    for result in results:
        if result.workload != "compress":
            continue
        by_codec.setdefault(result.codec, []).append(
            result.ratio_percent)
    return {name: sum(by_codec[name]) / len(by_codec[name])
            for name in COMPRESS_CODECS if name in by_codec}
