"""Vector-clock happens-before tracking over the simulation kernel.

The static race rules (R701–R704) approximate ordering from source
text; this module observes a *real* execution and derives the exact
happens-before relation the kernel guarantees:

* **Time barrier.**  Every event that completed at an earlier
  simulation instant happens-before every event at a later one — the
  kernel's ``(time, sequence)`` total order makes this unconditional.
* **Scheduling edges.**  The task that calls ``at`` / ``after`` /
  ``call_at`` / ``call_after`` / ``schedule_batch`` happens-before the
  scheduled callback (including same-instant entries, which the
  kernel dispatches after their scheduler by construction).
* **Synchronization edges.**  The task that registered an
  :class:`~repro.sim.signal.Event` waiter or
  :class:`~repro.sim.signal.Signal` observer happens-before the
  delivery of that callback (registration → delivery), and the
  triggering task encloses the delivery as a nested sub-task.

Everything else — two same-instant callbacks whose only ordering is
the kernel's insertion-order tie-break — is *unordered*: reordering
them is legal, so state they share is a race.

**Clock representation.**  Orderings across instants are total, so
vector clocks only need to discriminate *within* one instant.  Each
task ticks its own component exactly once when it starts and inherits
the components of its same-instant parent and join contributions;
components of earlier instants collapse into the time barrier and are
never stored.  Clocks materialise lazily (:attr:`Task.clock`), so a
ten-thousand-event storm that nobody queries costs nothing beyond the
task objects themselves.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (filename, lineno) of the frame that scheduled / registered a task.
Site = Tuple[str, int]

#: Frames from these files are kernel/sanitizer plumbing, not the code
#: a report should point at.
_PLUMBING_FILES = ("repro/sim/kernel.py", "repro/sim/signal.py",
                   "repro/sim/process.py", "repro/sanitize/hb.py",
                   "repro/sanitize/race.py",
                   "repro/sanitize/determinism.py")


def caller_site(skip_plumbing: bool = True) -> Site:
    """(filename, lineno) of the nearest non-plumbing caller frame."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not skip_plumbing or not filename.replace("\\", "/").endswith(
                _PLUMBING_FILES):
            return filename, frame.f_lineno
        frame = frame.f_back
    return "<unknown>", 0


def describe_callback(callback: Any) -> str:
    """A stable human label for a scheduled callable."""
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        return qualname
    func = getattr(callback, "func", None)  # functools.partial
    if func is not None:
        return describe_callback(func)
    return type(callback).__name__


class VectorClock:
    """Sparse per-instant vector clock.

    Components are task ids; every task ticks its own component once,
    so domination reduces to component presence: ``a`` happens-before
    ``b`` within an instant iff ``b.clock[a.tid] >= 1``.
    """

    __slots__ = ("components",)

    def __init__(self, components: Optional[Dict[int, int]] = None) -> None:
        self.components: Dict[int, int] = dict(components or {})

    def get(self, tid: int) -> int:
        return self.components.get(tid, 0)

    def join(self, other: "VectorClock") -> "VectorClock":
        merged = dict(self.components)
        for tid, count in other.components.items():
            if count > merged.get(tid, 0):
                merged[tid] = count
        return VectorClock(merged)

    def leq(self, other: "VectorClock") -> bool:
        return all(other.components.get(tid, 0) >= count
                   for tid, count in self.components.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"t{tid}:{count}" for tid, count
                          in sorted(self.components.items()))
        return f"VectorClock({{{inner}}})"


class Task:
    """One callback execution (or nested delivery) under tracking."""

    __slots__ = ("tid", "label", "site", "origin_site", "kind",
                 "time_ps", "parent", "joins", "_clock")

    def __init__(self, label: str, site: Site, kind: str,
                 parent: Optional["Task"] = None,
                 joins: Tuple[Optional["Task"], ...] = ()) -> None:
        self.tid = -1  # assigned when the task begins executing
        self.label = label
        self.site = site
        #: Where the work originated for cross-validation purposes —
        #: a process resume keeps pointing at its ``Process(...)``
        #: spawn site even though the kernel saw an anonymous lambda.
        self.origin_site = site
        self.kind = kind  # "at" | "call_at" | "batch" | "deliver"
        self.time_ps = -1  # assigned when the task begins executing
        self.parent = parent
        self.joins = joins
        self._clock: Optional[Dict[int, int]] = None

    def _clock_dict(self) -> Dict[int, int]:
        if self._clock is None:
            merged: Dict[int, int] = {}
            for contribution in (self.parent, *self.joins):
                # Contributions from earlier instants are covered by
                # the time barrier; only same-instant edges carry
                # clock components.
                if contribution is None \
                        or contribution.time_ps != self.time_ps:
                    continue
                for tid, count in contribution._clock_dict().items():
                    if count > merged.get(tid, 0):
                        merged[tid] = count
            merged[self.tid] = merged.get(self.tid, 0) + 1
            self._clock = merged
        return self._clock

    @property
    def clock(self) -> VectorClock:
        return VectorClock(self._clock_dict())

    def __repr__(self) -> str:
        return (f"Task(t{self.tid}, {self.label!r}, "
                f"@{self.time_ps} ps)")


def happens_before(first: Task, second: Task) -> bool:
    """Whether ``first`` is ordered before ``second`` by the kernel.

    Different instants are ordered by the time barrier; same-instant
    tasks only by scheduling/synchronization edges.
    """
    if first is second:
        return True
    if first.time_ps != second.time_ps:
        return first.time_ps < second.time_ps
    return second._clock_dict().get(first.tid, 0) >= 1


class TrackerListener:
    """Base class for task-stream consumers (all hooks no-ops)."""

    def on_task_begin(self, task: Task) -> None:
        pass

    def on_task_end(self, task: Task) -> None:
        pass

    def on_instant_end(self, time_ps: int) -> None:
        """The instant at ``time_ps`` is over; flush per-instant state."""


class HBTracker:
    """Per-simulator happens-before tracker.

    Installed as ``sim.sanitizer``; the kernel hands every scheduled
    callback to :meth:`on_schedule` for wrapping, and
    :class:`~repro.sim.signal.Event` / :class:`~repro.sim.signal.
    Signal` route registrations and deliveries through
    :meth:`on_subscribe` / :meth:`deliver`.  Listeners (the race
    store, the determinism stream recorder) see task begin/end and
    instant boundaries.
    """

    def __init__(self, sim: Any, label: str = "sim") -> None:
        self.sim = sim
        self.label = label
        self.current: Optional[Task] = None
        self._enclosing: List[Optional[Task]] = []
        self.listeners: List[TrackerListener] = []
        self.tasks_run = 0
        self._next_tid = 0
        self._instant_time = -1
        #: Registration edges: (id(source), id(callback)) -> (task,
        #: site).  ``get`` not ``pop`` at delivery — Signal observers
        #: deliver many times from one registration.
        self._registrations: Dict[Tuple[int, int],
                                  Tuple[Optional[Task], Site]] = {}

    # -- kernel protocol ----------------------------------------------

    def on_schedule(self, sim: Any, time_ps: int, callback: Callable,
                    kind: str) -> Callable:
        task = Task(label=describe_callback(callback),
                    site=caller_site(), kind=kind, parent=self.current)

        def fire(_task: Task = task,
                 _callback: Callable = callback) -> None:
            self._begin(_task)
            try:
                _callback()
            finally:
                self._end(_task)

        return fire

    def on_subscribe(self, source: Any, callback: Callable) -> None:
        self._registrations[(id(source), id(callback))] = (
            self.current, caller_site())

    def deliver(self, source: Any, callback: Callable,
                *args: Any) -> None:
        """Run a waiter/observer as a sub-task with its sync edge."""
        registration = self._registrations.get(
            (id(source), id(callback)))
        if registration is None:
            reg_task: Optional[Task] = None
            site = caller_site()
        else:
            reg_task, site = registration
        name = getattr(source, "name", type(source).__name__)
        task = Task(label=f"{describe_callback(callback)} <- {name}",
                    site=site, kind="deliver", parent=self.current,
                    joins=(reg_task,))
        self._begin(task)
        try:
            callback(*args)
        finally:
            self._end(task)

    def on_process_spawn(self, process: Any) -> None:
        # Remember the spawn site so every resume of this process can
        # point back at the ``Process(...)`` call the static R703
        # rule reports on.
        self._registrations[(id(process), id(process))] = (
            self.current, caller_site())

    def on_process_resume(self, process: Any) -> None:
        task = self.current
        if task is None:
            return
        registration = self._registrations.get(
            (id(process), id(process)))
        if registration is not None and registration[0] is task:
            # First segment: ``Process.__init__`` resumes inline, so
            # the current task is still the *spawner* — keep its
            # identity; only scheduled resumes get the process label.
            return
        task.label = f"process:{process.name}"
        if registration is not None:
            task.origin_site = registration[1]

    # -- task lifecycle -----------------------------------------------

    def _begin(self, task: Task) -> None:
        now = self.sim.now
        if now != self._instant_time:
            previous = self._instant_time
            self._instant_time = now
            if previous >= 0:
                for listener in self.listeners:
                    listener.on_instant_end(previous)
        task.time_ps = now
        task.tid = self._next_tid
        self._next_tid += 1
        self.tasks_run += 1
        # task.parent stays as captured at schedule/registration time
        # (the *scheduler*); the stack tracks the *enclosing* task,
        # which differs for top-level dispatch (enclosing is None).
        self._enclosing.append(self.current)
        self.current = task
        for listener in self.listeners:
            listener.on_task_begin(task)

    def _end(self, task: Task) -> None:
        self.current = self._enclosing.pop()
        for listener in self.listeners:
            listener.on_task_end(task)

    def finish(self) -> None:
        """Flush the final instant (call once the run is over)."""
        if self._instant_time >= 0:
            for listener in self.listeners:
                listener.on_instant_end(self._instant_time)
            self._instant_time = -1
