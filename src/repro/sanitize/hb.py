"""Task-stream tracking over the simulation kernel.

This module observes a *real* execution as a stream of labelled
tasks, grouped by simulation instant:

* every callback the kernel dispatches (``call_at`` / ``call_after``
  / ``schedule_batch``) runs as one task labelled with the
  callback's qualified name;
* an :class:`~repro.sim.signal.Event` waiter runs as a nested task
  labelled ``"<callback> <- <event name>"``.  A scheduled
  :class:`~repro.sim.process.Process` resume is such a callback too,
  labelled with its resume lambda's qualified name.

Listeners (the determinism stream recorder) see task begins and
instant boundaries; the recorder digests each instant's label
multiset, which is invariant under any legal same-instant reordering.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


def describe_callback(callback: Any) -> str:
    """A stable human label for a scheduled callable."""
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        return qualname
    func = getattr(callback, "func", None)  # functools.partial
    if func is not None:
        return describe_callback(func)
    return type(callback).__name__


class Task:
    """One callback execution (or nested delivery) under tracking."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"Task({self.label!r})"


class TrackerListener:
    """Base class for task-stream consumers (all hooks no-ops)."""

    def on_task_begin(self, task: Task) -> None:
        pass

    def on_instant_end(self, time_ps: int) -> None:
        """The instant at ``time_ps`` is over; flush per-instant state."""


class HBTracker:
    """Per-simulator task-stream tracker.

    Installed as ``sim.sanitizer``; the kernel hands every scheduled
    callback to :meth:`on_schedule` for wrapping, and
    :class:`~repro.sim.signal.Event` routes deliveries through
    :meth:`deliver`.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.current: Optional[Task] = None
        self._enclosing: List[Optional[Task]] = []
        self.listeners: List[TrackerListener] = []
        self.tasks_run = 0
        self._instant_time = -1

    # -- kernel protocol ----------------------------------------------

    def on_schedule(self, callback: Callable) -> Callable:
        """Wrap ``callback`` so that it runs as one task."""
        task = Task(describe_callback(callback))

        def fire(_task: Task = task,
                 _callback: Callable = callback) -> None:
            self._begin(_task)
            try:
                _callback()
            finally:
                self._end()

        return fire

    def deliver(self, event: Any, waiter: Callable) -> None:
        """Run an event waiter as a nested task."""
        task = Task(f"{describe_callback(waiter)} <- {event.name}")
        self._begin(task)
        try:
            waiter(event)
        finally:
            self._end()

    # -- task lifecycle -----------------------------------------------

    def _begin(self, task: Task) -> None:
        now = self.sim.now
        if now != self._instant_time:
            previous = self._instant_time
            self._instant_time = now
            if previous >= 0:
                for listener in self.listeners:
                    listener.on_instant_end(previous)
        self.tasks_run += 1
        self._enclosing.append(self.current)
        self.current = task
        for listener in self.listeners:
            listener.on_task_begin(task)

    def _end(self) -> None:
        self.current = self._enclosing.pop()

    def finish(self) -> None:
        """Flush the final instant (call once the run is over)."""
        if self._instant_time >= 0:
            for listener in self.listeners:
                listener.on_instant_end(self._instant_time)
            self._instant_time = -1
