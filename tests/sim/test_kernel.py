"""Kernel event-queue semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_initial_time_is_zero(sim):
    assert sim.now == 0


def test_events_fire_in_time_order(sim):
    order = []
    sim.call_at(300, lambda: order.append("c"))
    sim.call_at(100, lambda: order.append("a"))
    sim.call_at(200, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order(sim):
    order = []
    for label in "abcde":
        sim.call_at(50, lambda label=label: order.append(label))
    sim.run()
    assert order == list("abcde")


def test_now_advances_to_event_time(sim):
    seen = []
    sim.call_at(123, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [123]
    assert sim.now == 123


def test_after_is_relative(sim):
    seen = []
    sim.call_at(100, lambda: sim.call_after(50, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [150]


def test_scheduling_in_the_past_raises(sim):
    sim.call_at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(50, lambda: None)


def test_negative_delay_raises(sim):
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)


def test_run_until_bound_is_inclusive(sim):
    seen = []
    sim.call_at(100, lambda: seen.append("on-bound"))
    sim.call_at(101, lambda: seen.append("past-bound"))
    sim.run(until_ps=100)
    assert seen == ["on-bound"]
    assert sim.now == 100


def test_run_until_advances_time_even_when_idle(sim):
    sim.run(until_ps=500)
    assert sim.now == 500


def test_events_scheduled_during_run_are_executed(sim):
    seen = []

    def cascade(depth):
        seen.append(depth)
        if depth < 5:
            sim.call_after(10, lambda: cascade(depth + 1))

    sim.call_at(0, lambda: cascade(0))
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


def test_reentrant_run_rejected(sim):
    def inner():
        with pytest.raises(SimulationError):
            sim.run()

    sim.call_at(5, inner)
    sim.run()


def test_pending_events_counts_queue(sim):
    sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_call_at_and_call_after_fire_in_order(sim):
    order = []
    sim.call_at(30, lambda: order.append("c"))
    sim.call_at(10, lambda: order.append("a"))
    sim.call_after(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_call_at_past_raises(sim):
    sim.call_at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(50, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_after(-1, lambda: None)


def test_schedule_batch_matches_serial_scheduling(sim):
    order = []
    count = sim.schedule_batch(
        (100 - index, lambda i=index: order.append(i))
        for index in range(100))
    assert count == 100
    assert sim.pending_events == 100
    sim.run()
    assert order == list(reversed(range(100)))


def test_schedule_batch_ties_fire_in_batch_order(sim):
    order = []
    sim.schedule_batch((50, lambda label=label: order.append(label))
                       for label in "abcde")
    sim.run()
    assert order == list("abcde")


def test_schedule_batch_interleaves_with_call_at(sim):
    order = []
    sim.call_at(15, lambda: order.append("single"))
    sim.schedule_batch([(10, lambda: order.append("early")),
                        (20, lambda: order.append("late"))])
    sim.run()
    assert order == ["early", "single", "late"]


def test_schedule_batch_rejects_past_times(sim):
    sim.call_at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_batch([(100, lambda: None), (50, lambda: None)])
    # A failed batch must not corrupt the queue.
    assert sim.pending_events == 0


def test_schedule_batch_empty_is_noop(sim):
    assert sim.schedule_batch([]) == 0
    assert sim.pending_events == 0


def test_events_scheduled_mid_run_interleave_with_drain(sim):
    """New events land on the heap while run() drains its stack; the
    (time, seq) order must stay exact across the two tiers."""
    order = []
    sim.schedule_batch((10 * index, lambda i=index: order.append(i))
                       for i in [0] for index in range(1, 6))

    def wedge():
        order.append("wedge-now")
        sim.call_at(25, lambda: order.append("wedged"))

    sim.call_at(5, wedge)
    sim.run()
    assert order == ["wedge-now", 1, 2, "wedged", 3, 4, 5]


# -- same-instant events scheduled mid-run -----------------------------
# Events scheduled at exactly ``now`` while run() dispatches.  The tests
# below pin the ordering contract: entries already queued for the
# current instant fire before every one scheduled mid-run, and among
# those scheduling order is fire order.


def test_same_instant_storm_fires_fifo(sim):
    order = []

    def storm():
        order.append("head")
        for label in "abc":
            sim.call_at(10, lambda label=label: order.append(label))
        # Cascade: a same-instant callback appending more of them.
        sim.call_at(10, lambda: sim.call_at(10, lambda: order.append("tail")))

    sim.call_at(10, storm)
    sim.run()
    assert order == ["head", "a", "b", "c", "tail"]
    assert sim.now == 10
    assert sim.pending_events == 0


def test_pre_queued_same_time_precedes_mid_run_scheduled(sim):
    order = []

    def first():
        order.append("first")
        # Scheduled for the current instant, but the pre-queued
        # "second" carries a lower sequence and must fire before it.
        sim.call_at(10, lambda: order.append("bucketed"))

    sim.call_at(10, first)
    sim.call_at(10, lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "bucketed"]


def test_same_instant_mid_run_respects_until_bound(sim):
    order = []

    def storm():
        order.append("now")
        sim.call_at(10, lambda: order.append("same-instant"))
        sim.call_at(11, lambda: order.append("next-instant"))

    sim.call_at(10, storm)
    sim.run(until_ps=10)
    # The same-instant event is inside the inclusive bound; the later
    # one is not.
    assert order == ["now", "same-instant"]
    assert sim.pending_events == 1
    sim.run()
    assert order == ["now", "same-instant", "next-instant"]


def test_pending_events_counts_same_instant_mid_run(sim):
    depths = []

    def storm():
        for _ in range(3):
            sim.call_at(10, lambda: depths.append(sim.pending_events))

    sim.call_at(10, storm)
    sim.run()
    # Each same-instant callback sees the ones still queued behind it.
    assert depths == [2, 1, 0]


def test_schedule_batch_partitions_same_instant_mid_run(sim):
    order = []

    def storm():
        order.append("head")
        count = sim.schedule_batch([
            (10, lambda: order.append("bucket-a")),
            (25, lambda: order.append("heap")),
            (10, lambda: order.append("bucket-b")),
        ])
        assert count == 3
        assert sim.pending_events == 3

    sim.call_at(10, storm)
    sim.run()
    assert order == ["head", "bucket-a", "bucket-b", "heap"]


def test_exception_keeps_same_instant_remnant_queued(sim):
    order = []

    def storm():
        sim.call_at(10, lambda: order.append("survivor-a"))
        sim.call_at(10, lambda: order.append("survivor-b"))
        raise RuntimeError("boom")

    sim.call_at(10, storm)
    with pytest.raises(RuntimeError):
        sim.run()
    # The undispatched same-instant entries survive the abort...
    assert sim.pending_events == 2
    sim.run()
    # ...and fire later in their original FIFO order.
    assert order == ["survivor-a", "survivor-b"]
    assert sim.pending_events == 0


class _RecordingObserver:
    def __init__(self):
        self.fired = []

    def run_started(self, time_ps: int, pending: int) -> None:
        pass

    def run_finished(self, time_ps: int, pending: int) -> None:
        pass

    def event_fired(self, time_ps: int, depth: int) -> None:
        self.fired.append((time_ps, depth))


def test_observed_drain_matches_unobserved_for_storm():
    def build(simulator, order):
        def storm():
            order.append("head")
            for label in "abc":
                simulator.call_at(10, lambda label=label: order.append(label))
            simulator.call_at(20, lambda: order.append("later"))

        simulator.call_at(10, storm)
        simulator.call_at(10, lambda: order.append("queued"))

    plain_order = []
    plain = Simulator()
    build(plain, plain_order)
    plain.run()

    observed_order = []
    observed = Simulator()
    observed.observer = _RecordingObserver()
    build(observed, observed_order)
    observed.run()

    assert observed_order == plain_order
    assert len(observed.observer.fired) == len(plain_order)
    # Depth reported to the observer is the true pending count after
    # each dispatch.
    assert [depth for _, depth in observed.observer.fired] == \
        [5, 4, 3, 2, 1, 0]
