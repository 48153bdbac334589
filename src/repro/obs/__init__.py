"""``repro.obs`` — unified observability: tracing, metrics, profiling.

Two strictly separated time domains:

* **sim-time** telemetry — spans, phase tracks, counters, metrics —
  is stamped with integer picoseconds from the event kernel and is a
  deterministic function of simulated work.
* **wall-clock** profiling lives only in :mod:`repro.obs.profiling`,
  whose :class:`~repro.obs.profiling.Timer` hands host durations to
  its caller; no wall time enters a metrics registry.

Instrumentation is off by default and costs almost nothing when off:
the process registry defaults to :data:`~repro.obs.metrics.
NULL_REGISTRY` and the process tracer to ``None``, so instrumented
call sites execute a no-op method call or skip span bookkeeping
entirely.  The :func:`observed` context manager flips a command into
observed mode::

    with observed(trace=True, metrics=True) as obs:
        run_figure()
    write_chrome_trace(obs.tracer, "out.json")

Components never import the globals at call time through module
attributes they cache; they call :func:`current_tracer` /
:func:`current_registry` when *constructing* their scope, so a
long-lived system built inside ``observed()`` stays wired after the
block exits (useful for exporting afterwards).

See ``docs/observability.md`` for the architecture tour.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.export import (
    chrome_trace_events,
    load_chrome_trace,
    summarize_events,
    write_chrome_trace,
    write_ndjson,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.obs.primitives import Interval, Sample
from repro.obs.profiling import Timer
from repro.obs.tracing import (
    CounterSample,
    KernelObserver,
    PhaseTrack,
    SpanRecord,
    SpanSubscriber,
    Tracer,
    TraceScope,
)

__all__ = [
    # primitives
    "Sample", "Interval",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "NULL_REGISTRY", "DEFAULT_BUCKETS",
    # tracing
    "SpanRecord", "CounterSample", "SpanSubscriber", "Tracer",
    "TraceScope", "PhaseTrack", "KernelObserver",
    # profiling
    "Timer",
    # export
    "chrome_trace_events", "write_chrome_trace", "write_ndjson",
    "load_chrome_trace", "summarize_events",
    # process-wide wiring
    "current_tracer", "current_registry", "install", "observed",
    "Observation",
]

_tracer: Optional[Tracer] = None
_registry = NULL_REGISTRY


def current_tracer() -> Optional[Tracer]:
    """The process tracer, or ``None`` when tracing is off."""
    return _tracer


def current_registry():
    """The process metrics registry (a no-op one when metrics are off)."""
    return _registry


def install(tracer: Optional[Tracer] = None,
            registry=None) -> None:
    """Point the process globals at the given collectors.

    ``registry=None`` resets metrics to the no-op registry.  Prefer
    :func:`observed` in command code; ``install`` exists for worker
    processes that need to wire collectors without a ``with`` block.
    """
    global _tracer, _registry
    _tracer = tracer
    _registry = NULL_REGISTRY if registry is None else registry


class Observation:
    """Handle yielded by :func:`observed`: the live collectors."""

    __slots__ = ("tracer", "registry")

    def __init__(self, tracer: Optional[Tracer], registry) -> None:
        self.tracer = tracer
        self.registry = registry


@contextmanager
def observed(trace: bool = False,
             metrics: bool = False) -> Iterator[Observation]:
    """Enable tracing and/or metrics for the duration of the block.

    Systems constructed inside the block pick the collectors up via
    :func:`current_tracer`/:func:`current_registry`; the previous
    globals are restored on exit, and the yielded handle keeps the
    collectors alive for exporting.
    """
    tracer = Tracer() if trace else None
    registry = MetricsRegistry() if metrics else NULL_REGISTRY
    previous = (_tracer, _registry)
    install(tracer=tracer, registry=registry)
    try:
        yield Observation(tracer, registry)
    finally:
        install(tracer=previous[0], registry=previous[1])
