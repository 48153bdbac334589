"""Metrics registry: counters, gauges, fixed-bucket histograms.

One registry instruments a bounded scope of work (a CLI command, one
sweep cell, one worker process).  Instruments are memoised by their
hierarchical dotted name (``icap.words_written``,
``sweep.cells``), so hot paths fetch the instrument once and pay
a single attribute call per update.

Disabled by default: the process-wide registry is
:data:`NULL_REGISTRY`, whose instruments are shared no-op singletons —
an un-instrumented run allocates nothing and every update is one
no-op method call.  ``repro.obs.observed(registry=...)`` swaps a real
registry in for the duration of a command.

Every metric derives only from simulated work — counts, simulated
durations, byte totals — so merging the per-worker registries of a
sweep reproduces it exactly for any worker count.  Host timings never
enter a registry: :class:`repro.obs.profiling.Timer` hands its elapsed
seconds to the caller.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
]

Number = Union[int, float]

#: Default histogram bucket upper bounds (powers of four — wide range,
#: few buckets).  Values above the last bound land in the overflow
#: bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
)


class Counter:
    """Monotonic accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value (merge takes the maximum)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def high_water(self, value: Number) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus overflow."""

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str,
                 bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if tuple(sorted(bounds)) != tuple(bounds) or not bounds:
            raise ValueError(f"histogram {name!r}: bucket bounds must be "
                             f"a non-empty ascending sequence")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: Number = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: Number) -> None:
        pass

    def high_water(self, value: Number) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: Number) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Memoised instrument store with deterministic serialisation."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments --------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, bounds=bounds)
        return instrument

    # -- serialisation ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable state, keys sorted.

        A pure function of the simulated work — the property the sweep
        merge-determinism test asserts.
        """
        return {
            "counters": {c.name: c.value
                         for c in sorted(self._counters.values(),
                                         key=lambda c: c.name)},
            "gauges": {g.name: g.value
                       for g in sorted(self._gauges.values(),
                                       key=lambda g: g.name)},
            "histograms": {
                h.name: {"bounds": list(h.bounds), "counts": list(h.counts),
                         "total": h.total, "count": h.count}
                for h in sorted(self._histograms.values(),
                                key=lambda h: h.name)},
        }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms add; gauges keep the maximum.  The
        operation is associative and commutative over well-formed
        snapshots, which is why a parallel sweep's merged metrics
        cannot depend on worker scheduling.
        """
        for name in sorted(snapshot.get("counters", {})):
            self.counter(name).inc(snapshot["counters"][name])
        for name in sorted(snapshot.get("gauges", {})):
            self.gauge(name).high_water(snapshot["gauges"][name])
        for name in sorted(snapshot.get("histograms", {})):
            state = snapshot["histograms"][name]
            histogram = self.histogram(name, bounds=tuple(state["bounds"]))
            if histogram.bounds != tuple(state["bounds"]):
                raise ValueError(f"histogram {name!r}: bucket bounds "
                                 f"differ between merged registries")
            for index, count in enumerate(state["counts"]):
                histogram.counts[index] += count
            histogram.total += state["total"]
            histogram.count += state["count"]

    # -- reporting ----------------------------------------------------

    def rows(self) -> List[List[object]]:
        """``[name, kind, value]`` rows sorted by name (for tables)."""
        rows: List[List[object]] = []
        for counter in self._counters.values():
            rows.append([counter.name, "counter", counter.value])
        for gauge in self._gauges.values():
            rows.append([gauge.name, "gauge", gauge.value])
        for histogram in self._histograms.values():
            rows.append([histogram.name, "histogram",
                         f"n={histogram.count} mean={histogram.mean:.6g}"])
        rows.sort(key=lambda row: row[0])
        return rows

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))


class NullRegistry:
    """Disabled registry: shared no-op instruments, no state.

    The process-wide default.  ``counter()``/``gauge()``/
    ``histogram()`` return module-level singletons, so the disabled
    hot path is one dictionary-free method call and zero allocations.
    """

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str,
                  bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
                  ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def rows(self) -> List[List[object]]:
        return []

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()
