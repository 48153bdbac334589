"""TraceScope, PhaseTrack and subscriber semantics (sim-time only)."""

import gc
import sys

import pytest

from repro.obs.tracing import (
    KernelObserver,
    SpanSubscriber,
    Tracer,
    TraceScope,
)


class FakeSim:
    """Minimal stand-in: tracing only ever reads ``sim.now``."""

    def __init__(self):
        self.now = 0


class Recorder(SpanSubscriber):
    def __init__(self):
        self.calls = []

    def on_span_begin(self, name, cat, time_ps: int, args):
        self.calls.append(("begin", name, time_ps))

    def on_span_end(self, name, cat, time_ps: int, args):
        self.calls.append(("end", name, time_ps))

    def on_phase(self, track, phase, time_ps: int, args):
        self.calls.append(("phase", track, phase, time_ps, args))


def test_inert_scope_returns_shared_null_span():
    scope = TraceScope(FakeSim())
    assert not scope.recording
    assert not scope.active
    assert scope.span("a") is scope.span("b")


def test_inert_span_allocates_nothing():
    scope = TraceScope(FakeSim())
    for _ in range(100):  # warm up
        with scope.span("x", cat="sim"):
            pass
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(1000):
        with scope.span("x", cat="sim"):
            pass
        scope.instant("marker")
        scope.counter_sample("depth", 1.0)
    delta = sys.getallocatedblocks() - before
    # Interpreter-internal noise of a few blocks is fine; what must
    # not happen is one-or-more allocations per iteration.
    assert delta < 50, f"inert tracing allocated {delta} blocks"


def test_span_records_sim_time_interval():
    sim, tracer = FakeSim(), Tracer()
    scope = TraceScope(sim, tracer=tracer, label="unit")
    sim.now = 100
    with scope.span("urec.header", cat="urec", words=3):
        sim.now = 250
    assert len(tracer.spans) == 1
    span = tracer.spans[0]
    assert (span.name, span.cat) == ("urec.header", "urec")
    assert (span.start_ps, span.end_ps, span.duration_ps) \
        == (100, 250, 150)
    assert span.args == {"words": 3}
    assert tracer.process_labels == ["unit"]


def test_each_registered_scope_gets_its_own_pid():
    tracer = Tracer()
    first = TraceScope(FakeSim(), tracer=tracer, label="sim-a")
    second = TraceScope(FakeSim(), tracer=tracer, label="sim-b")
    assert (first.pid, second.pid) == (0, 1)
    assert tracer.process_labels == ["sim-a", "sim-b"]


def test_phase_track_one_callback_per_transition():
    # The load-bearing contract: enter() closes the previous phase and
    # opens the next with exactly ONE on_phase call, which is how
    # PowerTraceBuilder maps transitions onto its historical sampling
    # points without double-sampling.
    sim = FakeSim()
    scope = TraceScope(sim)
    recorder = Recorder()
    scope.subscribe(recorder)
    track = scope.track("manager", cat="controller")

    sim.now = 10
    track.enter("control")
    sim.now = 30
    track.enter("wait")
    sim.now = 50
    track.exit()

    assert recorder.calls == [
        ("phase", "manager", "control", 10, None),
        ("phase", "manager", "wait", 30, None),
        ("phase", "manager", None, 50, None),
    ]


def test_phase_track_spans_closed_back_to_back():
    sim, tracer = FakeSim(), Tracer()
    scope = TraceScope(sim, tracer=tracer)
    track = scope.track("manager", cat="controller")
    sim.now = 10
    track.enter("control")
    sim.now = 30
    track.enter("wait", budget_mw=50)
    sim.now = 70
    track.exit()
    names = [(s.name, s.start_ps, s.end_ps) for s in tracer.spans]
    assert names == [("manager.control", 10, 30),
                     ("manager.wait", 30, 70)]
    assert tracer.spans[1].args == {"budget_mw": 50}
    assert all(s.track == "manager" for s in tracer.spans)


def test_phase_track_exit_without_open_phase_is_noop_span():
    sim, tracer = FakeSim(), Tracer()
    scope = TraceScope(sim, tracer=tracer)
    scope.track("chain").exit()
    assert tracer.spans == []


def test_tracks_memoised_by_name():
    scope = TraceScope(FakeSim())
    assert scope.track("chain") is scope.track("chain")


def test_unsubscribe_stops_callbacks():
    sim = FakeSim()
    scope = TraceScope(sim)
    recorder = Recorder()
    scope.subscribe(recorder)
    with scope.span("a"):
        pass
    scope.unsubscribe(recorder)
    with scope.span("b"):
        pass
    assert [c[1] for c in recorder.calls] == ["a", "a"]


def test_subscribers_work_without_tracer():
    # Power sampling on untraced runs: subscribers fire, nothing is
    # collected for export.
    sim = FakeSim()
    scope = TraceScope(sim)
    recorder = Recorder()
    scope.subscribe(recorder)
    assert scope.active and not scope.recording
    sim.now = 5
    scope.track("chain").enter("active", clk2_mhz=100.0)
    scope.track("chain").exit()
    assert recorder.calls == [
        ("phase", "chain", "active", 5, {"clk2_mhz": 100.0}),
        ("phase", "chain", None, 5, None),
    ]


def test_counter_samples_collected():
    sim, tracer = FakeSim(), Tracer()
    scope = TraceScope(sim, tracer=tracer)
    sim.now = 40
    scope.counter_sample("kernel.queue_depth", 12)
    scope.counter_sample("kernel.queue_depth", 3, time_ps=99)
    assert [(c.time_ps, c.value) for c in tracer.counters] \
        == [(40, 12), (99, 3)]


def test_kernel_observer_counts_and_samples():
    from repro.obs.metrics import MetricsRegistry

    sim, tracer = FakeSim(), Tracer()
    scope = TraceScope(sim, tracer=tracer)
    registry = MetricsRegistry()
    observer = KernelObserver(scope, registry, queue_sample_interval=2)

    observer.run_started(0, 5)
    for tick in range(4):
        sim.now = (tick + 1) * 10
        observer.event_fired(sim.now, depth=4 - tick)
    observer.run_finished(sim.now, 0)

    snapshot = registry.snapshot()
    assert snapshot["counters"]["kernel.events_dispatched"] == 4
    assert snapshot["counters"]["kernel.runs"] == 1
    # Samples at run start, every 2nd event, and run end.
    assert [c.value for c in tracer.counters] == [5, 3, 1, 0]
    assert [s.name for s in tracer.spans] == ["kernel.run"]


def test_kernel_observer_never_sees_a_nested_run():
    # Simulator.run rejects reentry before it calls run_started, so an
    # observer sees strictly alternating starts and finishes: one span
    # and one counted run per run().
    from repro.errors import SimulationError
    from repro.obs.metrics import MetricsRegistry
    from repro.sim import Simulator

    sim, tracer, registry = Simulator(), Tracer(), MetricsRegistry()
    sim.observer = KernelObserver(TraceScope(sim, tracer=tracer), registry)

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.call_at(5, reenter)
    sim.run()
    sim.call_at(9, lambda: None)
    sim.run()
    assert [(s.name, s.start_ps, s.end_ps) for s in tracer.spans] \
        == [("kernel.run", 0, 5), ("kernel.run", 5, 9)]
    assert registry.snapshot()["counters"]["kernel.runs"] == 2
