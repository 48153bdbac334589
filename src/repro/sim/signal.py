"""One-shot events.

:class:`Event` is a one-shot synchronization point (a "rising edge
that happens once"), used by processes that wait for completion
notifications: the UReC's Start/Finish handshake and every
:class:`~repro.sim.process.Process`'s ``finished``.

A waiter registered while the event is triggering runs at once,
exactly once.  A raising waiter does not lose the waiters queued
after it.

When a dynamic sanitizer is attached to the simulator
(``sim.sanitizer``, see :mod:`repro.sanitize`), each delivery runs
through it, so the task stream names waiters by the :class:`Event`
that delivered to them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.kernel import Simulator


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
                sanitizer.deliver(self, waiter)
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
