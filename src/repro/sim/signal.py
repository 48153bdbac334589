"""Signals and one-shot events.

:class:`Signal` models a named wire carrying a Python value.  Observers
subscribe to changes; hardware models use this for the Start/Finish/EN
handshakes the paper describes.  :class:`Event` is a one-shot
synchronization point (a "rising edge that happens once"), used by
processes that wait for completion notifications.

Both notification loops tolerate callbacks that mutate the listener
list mid-notification: an observer unsubscribed while a change is
being delivered is *not* called for that change, an observer added
while one is being delivered only sees the next change, and a waiter
registered while an event is triggering fires exactly once.  A raising
waiter no longer loses the waiters queued after it.

When a dynamic sanitizer is attached to the simulator
(``sim.sanitizer``, see :mod:`repro.sanitize`), each delivery runs
through it, so the task stream names waiters and observers by the
:class:`Event` or :class:`Signal` that delivered to them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.kernel import Simulator

Observer = Callable[[Any, int], None]


class Signal:
    """A named, observable value with change history support."""

    def __init__(self, sim: Simulator, name: str, initial: Any = 0) -> None:
        self._sim = sim
        self.name = name
        self._value = initial
        self._observers: List[Observer] = []
        self.change_count = 0

    @property
    def value(self) -> Any:
        return self._value

    def set(self, value: Any) -> None:
        """Drive the signal.  Observers fire only on an actual change."""
        if value == self._value:
            return
        self._value = value
        self.change_count += 1
        observers = self._observers
        sanitizer = self._sim.sanitizer
        # Snapshot, then re-check membership per delivery: an observer
        # unsubscribed by an earlier callback of this very notification
        # must not see the change, and one subscribed mid-notification
        # only sees the next change (it is absent from the snapshot).
        for observer in tuple(observers):
            if observer not in observers:
                continue
            if sanitizer is not None:
                sanitizer.deliver(self, observer, value, self._sim.now)
            else:
                observer(value, self._sim.now)

    def pulse(self, active: Any = 1, idle: Any = 0) -> None:
        """Drive ``active`` then immediately return to ``idle``.

        Models a single-cycle strobe such as the UReC "Start" input;
        both edges are visible to observers within the same timestamp.
        """
        self.set(active)
        self.set(idle)

    def observe(self, observer: Observer) -> Callable[[], None]:
        """Register a change observer; returns an unsubscribe closure."""
        self._observers.append(observer)

        def unsubscribe() -> None:
            if observer in self._observers:
                self._observers.remove(observer)

        return unsubscribe

    def on_value(self, wanted: Any, callback: Callable[[int], None]) -> None:
        """Invoke ``callback(time)`` once, the next time value == wanted."""

        def observer(value: Any, time_ps: int) -> None:
            if value == wanted:
                unsubscribe()
                callback(time_ps)

        unsubscribe = self.observe(observer)

    def __repr__(self) -> str:
        return f"Signal({self.name}={self._value!r})"


class Event:
    """One-shot completion event with an optional payload."""

    def __init__(self, sim: Simulator, name: str = "event") -> None:
        self._sim = sim
        self.name = name
        self.triggered = False
        self.payload: Any = None
        self.trigger_time: Optional[int] = None
        self._waiters: List[Callable[["Event"], None]] = []

    def trigger(self, payload: Any = None) -> None:
        """Fire the event.  Triggering twice is an error in our models."""
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.payload = payload
        self.trigger_time = self._sim.now
        sanitizer = self._sim.sanitizer
        # Drain in FIFO order, consuming from the live list: a waiter
        # that raises leaves the ones behind it still queued (state
        # stays inspectable), and a waiter added mid-drain runs
        # immediately via add_waiter's triggered branch, never twice.
        waiters = self._waiters
        while waiters:
            waiter = waiters.pop(0)
            if sanitizer is not None:
                sanitizer.deliver(self, waiter, self)
            else:
                waiter(self)

    def add_waiter(self, callback: Callable[["Event"], None]) -> None:
        """Call ``callback(event)`` at trigger time (immediately if done)."""
        if self.triggered:
            callback(self)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"Event({self.name}, {state})"
