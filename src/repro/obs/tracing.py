"""Sim-time span tracing.

Every timestamp below is **simulation time** (integer picoseconds read
from ``Simulator.now``), so traces are deterministic: the same run
produces the same spans byte for byte, regardless of host load.
Wall-clock profiling is a different subsystem
(:mod:`repro.obs.profiling`) and never mixes with these records.

Three layers:

* :class:`Tracer` — the process-wide collector.  Not bound to any
  simulator; each simulator that joins registers itself and gets a
  Chrome-trace process id, which is how a sweep over many independent
  sims (each restarting at t=0) stays readable in Perfetto.
* :class:`TraceScope` — the per-simulator facade components hold.  It
  reads ``sim.now``, forwards to the tracer (when one is installed)
  and to any :class:`SpanSubscriber` (always).  With no tracer and no
  subscribers, ``span()`` returns a shared no-op context manager —
  the disabled path allocates nothing.
* :class:`PhaseTrack` — sequential, non-overlapping spans on one named
  track (a controller's ``control → wait → control`` life cycle).
  ``enter()`` closes the previous phase and opens the next in one
  call, mirroring exactly the state-machine transitions the power
  model samples — which is how :class:`~repro.power.trace.
  PowerTraceBuilder` can be a plain subscriber and still reproduce
  its historical traces sample for sample.

Subscribers receive ``on_span_begin`` / ``on_span_end`` for nested
spans and ``on_phase`` for track transitions (``phase=None`` meaning
the track went idle).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SpanRecord",
    "CounterSample",
    "SpanSubscriber",
    "Tracer",
    "TraceScope",
    "PhaseTrack",
    "KernelObserver",
]


class SpanRecord:
    """One closed span: a named interval on a (pid, track) lane."""

    __slots__ = ("name", "cat", "pid", "track", "start_ps", "end_ps",
                 "args")

    def __init__(self, name: str, cat: str, pid: int, track: str,
                 start_ps: int, end_ps: int,
                 args: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.cat = cat
        self.pid = pid
        self.track = track
        self.start_ps = start_ps
        self.end_ps = end_ps
        self.args = args

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps

    def __repr__(self) -> str:
        return (f"SpanRecord({self.name!r}, cat={self.cat!r}, "
                f"[{self.start_ps}, {self.end_ps}] ps)")


class CounterSample:
    """One timestamped value on a counter track (e.g. queue depth)."""

    __slots__ = ("name", "pid", "time_ps", "value")

    def __init__(self, name: str, pid: int, time_ps: int,
                 value: float) -> None:
        self.name = name
        self.pid = pid
        self.time_ps = time_ps
        self.value = value


class SpanSubscriber:
    """Base class for streaming span consumers (all hooks no-ops)."""

    def on_span_begin(self, name: str, cat: str, time_ps: int,
                      args: Optional[Dict[str, Any]]) -> None:
        pass

    def on_span_end(self, name: str, cat: str, time_ps: int,
                    args: Optional[Dict[str, Any]]) -> None:
        pass

    def on_phase(self, track: str, phase: Optional[str], time_ps: int,
                 args: Optional[Dict[str, Any]]) -> None:
        pass


class Tracer:
    """Process-wide span/counter collector shared by many sims."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.counters: List[CounterSample] = []
        self.process_labels: List[str] = []

    def register(self, label: str) -> int:
        """Join a simulator under ``label``; returns its trace pid."""
        self.process_labels.append(label)
        return len(self.process_labels) - 1

    def add_span(self, record: SpanRecord) -> None:
        self.spans.append(record)

    def add_counter(self, sample: CounterSample) -> None:
        self.counters.append(sample)

    def __len__(self) -> int:
        return len(self.spans) + len(self.counters)


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one nested span on a scope."""

    __slots__ = ("_scope", "_name", "_cat", "_args", "_start")

    def __init__(self, scope: "TraceScope", name: str, cat: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self._scope = scope
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._start = self._scope._begin(self._name, self._cat,
                                         self._args)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._scope._end(self._name, self._cat, self._start, self._args)


class PhaseTrack:
    """Sequential phases on one named lane; at most one open at a time.

    ``enter("wait")`` atomically closes the current phase (recording
    its span) and opens ``wait`` — one subscriber callback per
    transition, exactly mirroring a state-machine assignment.
    ``exit()`` closes the track (``phase=None`` to subscribers).
    """

    __slots__ = ("_scope", "name", "cat", "_current")

    def __init__(self, scope: "TraceScope", name: str, cat: str) -> None:
        self._scope = scope
        self.name = name
        self.cat = cat
        #: (phase, start_ps, args) of the open phase, or None.
        self._current: Optional[Tuple[str, int,
                                      Optional[Dict[str, Any]]]] = None

    def enter(self, phase: str, **args: Any) -> None:
        scope = self._scope
        now = scope.sim.now
        self._close(now)
        self._current = (phase, now, args or None)
        for subscriber in scope.subscribers:
            subscriber.on_phase(self.name, phase, now, args or None)

    def exit(self) -> None:
        scope = self._scope
        now = scope.sim.now
        self._close(now)
        for subscriber in scope.subscribers:
            subscriber.on_phase(self.name, None, now, None)

    def _close(self, now: int) -> None:
        if self._current is None:
            return
        phase, start, args = self._current
        self._current = None
        tracer = self._scope.tracer
        if tracer is not None:
            tracer.add_span(SpanRecord(
                name=f"{self.name}.{phase}", cat=self.cat,
                pid=self._scope.pid, track=self.name,
                start_ps=start, end_ps=now, args=args))


class TraceScope:
    """Per-simulator tracing facade.

    ``tracer=None`` (the default) records nothing but still drives
    subscribers, which is how power sampling works on untraced runs.
    With neither tracer nor subscribers the scope is inert:
    :meth:`span` hands back a shared no-op context manager.
    """

    def __init__(self, sim: Any, tracer: Optional[Tracer] = None,
                 label: str = "sim") -> None:
        self.sim = sim
        self.tracer = tracer
        self.label = label
        self.pid = tracer.register(label) if tracer is not None else 0
        self.subscribers: List[SpanSubscriber] = []
        self._tracks: Dict[str, PhaseTrack] = {}

    @property
    def recording(self) -> bool:
        """Whether span records are being collected for export."""
        return self.tracer is not None

    @property
    def active(self) -> bool:
        return self.tracer is not None or bool(self.subscribers)

    # -- subscribers --------------------------------------------------

    def subscribe(self, subscriber: SpanSubscriber) -> None:
        self.subscribers.append(subscriber)

    def unsubscribe(self, subscriber: SpanSubscriber) -> None:
        self.subscribers.remove(subscriber)

    # -- nested spans -------------------------------------------------

    def span(self, name: str, cat: str = "sim", **args: Any):
        """Context manager timing a sim-time span; free when inert."""
        if self.tracer is None and not self.subscribers:
            return _NULL_SPAN
        return _Span(self, name, cat, args or None)

    def instant(self, name: str, cat: str = "sim",
                **args: Any) -> None:
        """A zero-duration marker event."""
        if self.tracer is None and not self.subscribers:
            return
        now = self.sim.now
        if self.tracer is not None:
            self.tracer.add_span(SpanRecord(
                name=name, cat=cat, pid=self.pid, track=cat,
                start_ps=now, end_ps=now, args=args or None))

    def counter_sample(self, name: str, value: float,
                       time_ps: Optional[int] = None) -> None:
        """Record a point on a counter track (queue depth, backlog)."""
        if self.tracer is None:
            return
        self.tracer.add_counter(CounterSample(
            name=name, pid=self.pid,
            time_ps=self.sim.now if time_ps is None else time_ps,
            value=value))

    # -- phase tracks -------------------------------------------------

    def track(self, name: str, cat: str = "sim") -> PhaseTrack:
        """The (memoised) phase track called ``name``."""
        existing = self._tracks.get(name)
        if existing is None:
            existing = self._tracks[name] = PhaseTrack(self, name, cat)
        return existing

    # -- span plumbing ------------------------------------------------

    def _begin(self, name: str, cat: str,
               args: Optional[Dict[str, Any]]) -> int:
        now = self.sim.now
        for subscriber in self.subscribers:
            subscriber.on_span_begin(name, cat, now, args)
        return now

    def _end(self, name: str, cat: str, start_ps: int,
             args: Optional[Dict[str, Any]]) -> None:
        now = self.sim.now
        if self.tracer is not None:
            self.tracer.add_span(SpanRecord(
                name=name, cat=cat, pid=self.pid, track=cat,
                start_ps=start_ps, end_ps=now, args=args))
        for subscriber in self.subscribers:
            subscriber.on_span_end(name, cat, now, args)


class KernelObserver:
    """Event-kernel instrumentation the simulator calls when attached.

    Counts dispatched events into the metrics registry and samples the
    queue depth onto a counter track every ``queue_sample_interval``
    events — both derived purely from simulated state, so an observed
    run's telemetry is deterministic.  The kernel only calls these
    hooks when an observer is attached; unobserved, the dispatch loop
    pays one ``None`` check per event (see ``Simulator.run``).
    """

    __slots__ = ("_scope", "_events", "_runs", "_interval", "_seen",
                 "_run_depth")

    def __init__(self, scope: TraceScope, registry: Any = None,
                 queue_sample_interval: int = 256) -> None:
        if registry is None:
            from repro.obs.metrics import NULL_REGISTRY
            registry = NULL_REGISTRY
        self._scope = scope
        self._events = registry.counter("kernel.events_dispatched")
        self._runs = registry.counter("kernel.runs")
        self._interval = max(1, int(queue_sample_interval))
        self._seen = 0
        self._run_depth = 0

    def run_started(self, time_ps: int, pending: int) -> None:
        # An observer shared by several simulators sees nested runs
        # when a callback of one runs another; only the outermost run
        # opens the span.
        self._run_depth += 1
        if self._run_depth == 1:
            self._runs.inc()
            self._scope.track("kernel", cat="kernel").enter("run")
            self._scope.counter_sample("kernel.queue_depth", pending,
                                       time_ps=time_ps)

    def run_finished(self, time_ps: int, pending: int) -> None:
        self._run_depth -= 1
        if self._run_depth == 0:
            self._scope.counter_sample("kernel.queue_depth", pending,
                                       time_ps=time_ps)
            self._scope.track("kernel", cat="kernel").exit()

    def event_fired(self, time_ps: int, depth: int) -> None:
        self._events.inc()
        self._seen += 1
        if self._seen % self._interval == 0:
            self._scope.counter_sample("kernel.queue_depth", depth,
                                       time_ps=time_ps)
