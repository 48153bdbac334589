"""Event semantics."""

import pytest

from repro.sim import Event


def test_event_trigger_carries_payload(sim):
    event = Event(sim, "done")
    event.trigger(payload={"words": 42})
    assert event.triggered
    assert event.payload == {"words": 42}
    assert event.trigger_time == 0


def test_event_double_trigger_raises(sim):
    event = Event(sim, "done")
    event.trigger()
    with pytest.raises(RuntimeError):
        event.trigger()


def test_waiter_called_on_trigger(sim):
    event = Event(sim, "done")
    seen = []
    event.add_waiter(lambda ev: seen.append(ev.payload))
    event.trigger("payload")
    assert seen == ["payload"]


def test_waiter_added_after_trigger_fires_immediately(sim):
    event = Event(sim, "done")
    event.trigger("x")
    seen = []
    event.add_waiter(lambda ev: seen.append(ev.payload))
    assert seen == ["x"]


# -- mutation during notification (regression: the trigger loop used
# -- to iterate the live list, skipping or double-firing waiters) ------

def test_raising_waiter_does_not_lose_queued_waiters(sim):
    event = Event(sim, "done")
    seen = []

    def bad(ev):
        raise RuntimeError("waiter failed")

    event.add_waiter(bad)
    event.add_waiter(lambda ev: seen.append("after"))
    with pytest.raises(RuntimeError, match="waiter failed"):
        event.trigger("x")
    # the event did trigger; the surviving waiter is still queued and
    # a late add_waiter fires immediately rather than being lost.
    assert event.triggered
    event.add_waiter(lambda ev: seen.append("late"))
    assert seen == ["late"]


def test_waiter_added_mid_drain_fires_exactly_once(sim):
    event = Event(sim, "done")
    seen = []

    def chaining(ev):
        seen.append("chaining")
        ev.add_waiter(lambda e: seen.append("added-mid-drain"))

    event.add_waiter(chaining)
    event.add_waiter(lambda ev: seen.append("second"))
    event.trigger()
    # the mid-drain registration fired immediately (triggered branch)
    # and exactly once, and the pre-registered waiters kept FIFO order.
    assert seen == ["chaining", "added-mid-drain", "second"]
