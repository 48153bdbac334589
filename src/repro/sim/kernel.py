"""Event queue and simulator core.

The kernel is a classic calendar loop: a binary heap of
``(time, sequence, handle, callback)`` entries.  The monotonically
increasing sequence number makes event ordering total and
deterministic — two events scheduled for the same picosecond fire in
scheduling order, which keeps every experiment in the repository
exactly reproducible.  Because the ``(time, sequence)`` prefix is
unique, ``heapq`` never compares the trailing elements.

Two scheduling surfaces share the queue:

* :meth:`Simulator.at` / :meth:`Simulator.after` return a
  :class:`ScheduledEvent` handle that supports cancellation.
* :meth:`Simulator.call_at` / :meth:`Simulator.call_after` /
  :meth:`Simulator.schedule_batch` are the slot-free fast path: no
  handle is allocated, the callback goes straight onto the heap.
  Hot paths that never cancel (process delays, clock ticks, event
  storms) use these to skip one object allocation per event.

Cancelled handles stay in the heap until their timestamp is reached,
but the kernel counts them and lazily compacts the heap when more
than half of it is dead, so missions that schedule-and-cancel in a
loop do not grow the queue without bound.

Every event, including one scheduled mid-run at the current instant,
goes onto the heap: an event scheduled while ``now`` is dispatching
carries a higher sequence number than everything already queued for
``now``, so the ``(time, sequence)`` order alone fires it after them.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

Callback = Callable[[], None]

#: Queue entry: (time_ps, sequence, handle-or-None, callback).
_Entry = Tuple[int, int, Optional["ScheduledEvent"], Callback]

#: Below this queue size compaction is pointless (the heap is tiny).
_COMPACT_MIN_EVENTS = 64

#: Process-wide hook called with every newly constructed
#: :class:`Simulator` — how ``repro.sanitize`` attaches its dynamic
#: checkers to simulators it never sees being built (an example script
#: constructing a system deep inside a library call).  ``None`` (the
#: default) costs one attribute load per construction.
_construction_hook: Optional[Callable[["Simulator"], None]] = None


def set_construction_hook(
        hook: Optional[Callable[["Simulator"], None]],
) -> Optional[Callable[["Simulator"], None]]:
    """Install (or clear, with ``None``) the construction hook.

    Returns the previously installed hook so callers can restore it —
    ``repro.sanitize``'s recorded runs nest this way.
    """
    global _construction_hook
    previous = _construction_hook
    _construction_hook = hook
    return previous


class Simulator:
    """Deterministic discrete-event simulator with picosecond time."""

    def __init__(self) -> None:
        self._now = 0
        self._sequence = 0
        self._queue: List[_Entry] = []
        #: Descending-sorted stack :meth:`run` drains from the end
        #: (O(1) ``pop()`` instead of a heap sift per event).  Always
        #: empty outside :meth:`run`; new events scheduled while
        #: running land on the heap and interleave by (time, seq).
        self._drain: List[_Entry] = []
        self._running = False
        self._cancelled_in_queue = 0
        #: Optional kernel observer (``repro.obs.KernelObserver``
        #: protocol: ``run_started``/``event_fired``/``run_finished``).
        #: The dispatch loop calls ``event_fired`` after each event
        #: when one is attached.
        self.observer = None
        #: Optional dynamic sanitizer (``repro.sanitize`` protocol:
        #: ``on_schedule(sim, time_ps, callback, kind) -> callback``).
        #: Consulted at *scheduling* time only — it wraps callbacks to
        #: observe execution, so the dispatch loop stays untouched.
        self.sanitizer = None
        #: Optional ``random.Random`` enabling seeded tie-break
        #: perturbation (``repro.sanitize.determinism``).  When set,
        #: every entry gets a randomised high field above its unique
        #: sequence number, which legally shuffles same-instant event
        #: order.  Cross-instant order, uniqueness of the
        #: ``(time, seq)`` prefix, and the scheduler-before-scheduled
        #: guarantee (a callback has fired before anything it
        #: schedules is queued) are all preserved — only the FIFO
        #: tie-break among unordered same-time events varies.  ``None``
        #: (the default) keeps the historical deterministic scheduling
        #: order.
        self._perturb = None
        if _construction_hook is not None:
            _construction_hook(self)

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (not cancelled) events still queued."""
        return (len(self._queue) + len(self._drain)
                - self._cancelled_in_queue)

    def at(self, time_ps: int, callback: Callback) -> "ScheduledEvent":
        """Schedule ``callback`` at absolute time ``time_ps``."""
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ps} ps: simulation time is "
                f"already {self._now} ps"
            )
        if self.sanitizer is not None:
            callback = self.sanitizer.on_schedule(self, time_ps,
                                                  callback, "at")
        handle = ScheduledEvent(time_ps, callback, self)
        sequence = self._sequence
        if self._perturb is not None:
            sequence = (self._perturb.getrandbits(32) << 40) | sequence
        heapq.heappush(self._queue, (time_ps, sequence, handle, callback))
        self._sequence += 1
        return handle

    def after(self, delay_ps: int, callback: Callback) -> "ScheduledEvent":
        """Schedule ``callback`` after a relative delay."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps} ps")
        return self.at(self._now + delay_ps, callback)

    def call_at(self, time_ps: int, callback: Callback) -> None:
        """Slot-free fast path of :meth:`at`: no cancellation handle.

        Use for waits that are never cancelled (the overwhelming
        majority — process delays, clock ticks); skips the
        per-event :class:`ScheduledEvent` allocation.
        """
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ps} ps: simulation time is "
                f"already {self._now} ps"
            )
        if self.sanitizer is not None:
            callback = self.sanitizer.on_schedule(self, time_ps,
                                                  callback, "call_at")
        sequence = self._sequence
        if self._perturb is not None:
            sequence = (self._perturb.getrandbits(32) << 40) | sequence
        heapq.heappush(self._queue, (time_ps, sequence, None, callback))
        self._sequence += 1

    def call_after(self, delay_ps: int, callback: Callback) -> None:
        """Slot-free fast path of :meth:`after`."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps} ps")
        self.call_at(self._now + delay_ps, callback)

    def schedule_batch(self,
                       events: Iterable[Tuple[int, Callback]]) -> int:
        """Bulk slot-free scheduling of ``(time_ps, callback)`` pairs.

        Pairs are enqueued in iteration order (ties fire in that
        order); returns the number of events scheduled.  The batch is
        materialised in one pass and the heap rebuilt with a single
        O(n) ``heapify`` — no per-event push, handle allocation, or
        method dispatch — the cheapest way to pre-seed a large event
        storm.
        """
        if self.sanitizer is not None:
            sanitizer = self.sanitizer
            events = [(time_ps,
                       sanitizer.on_schedule(self, time_ps, callback,
                                             "batch"))
                      for time_ps, callback in events]
        perturb = self._perturb
        if perturb is None:
            entries: List[_Entry] = [
                (time_ps, sequence, None, callback)
                for sequence, (time_ps, callback)
                in enumerate(events, self._sequence)
            ]
        else:
            entries = [
                (time_ps, (perturb.getrandbits(32) << 40) | sequence,
                 None, callback)
                for sequence, (time_ps, callback)
                in enumerate(events, self._sequence)
            ]
        if not entries:
            return 0
        earliest = min(entries)[0]
        if earliest < self._now:
            raise SimulationError(
                f"cannot schedule at t={earliest} ps: simulation time "
                f"is already {self._now} ps"
            )
        self._sequence += len(entries)
        queue = self._queue
        if queue or self._running:
            # Mid-run the drain loop holds an alias to the queue list,
            # so it must be extended in place, never rebound.
            queue.extend(entries)
            heapq.heapify(queue)
        else:
            self._queue = entries
            heapq.heapify(self._queue)
        return len(entries)

    def run(self, until_ps: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until_ps`` is reached.

        Returns the final simulation time.  Events scheduled exactly at
        ``until_ps`` are executed (the bound is inclusive), which lets a
        caller step the simulation in precise increments.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        observer = self.observer
        if observer is not None:
            observer.run_started(self._now, self.pending_events)
        try:
            self._drain_loop(until_ps, observer)
            if until_ps is not None and until_ps > self._now:
                self._now = until_ps
        finally:
            drain = self._drain
            if drain:
                self._queue.extend(drain)
                drain.clear()
                heapq.heapify(self._queue)
            self._running = False
            if observer is not None:
                observer.run_finished(self._now, self.pending_events)
        return self._now

    def _drain_loop(self, until_ps: Optional[int], observer) -> None:
        """The dispatch loop — the kernel's hot path.

        With an observer attached, ``event_fired`` receives the
        post-dispatch queue depth after each event; the observer
        decides how often to materialise it into a counter track.
        """
        queue = self._queue
        drain = self._drain
        pop = heapq.heappop
        while True:
            if drain:
                entry = drain[-1]
                if queue and queue[0] < entry:
                    # A callback scheduled something earlier than
                    # the next drained entry; (time, seq) tuple
                    # comparison keeps the total order exact.
                    entry = queue[0]
                    if until_ps is not None and entry[0] > until_ps:
                        break
                    pop(queue)
                else:
                    if until_ps is not None and entry[0] > until_ps:
                        break
                    drain.pop()
            elif queue:
                # Refill the drain stack: one timsort replaces a
                # heap sift per event for everything queued so far.
                queue.sort()
                drain.extend(reversed(queue))
                queue.clear()
                continue
            else:
                break
            handle = entry[2]
            if handle is not None:
                if handle.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                handle.fired = True
            self._now = entry[0]
            entry[3]()
            if observer is not None:
                observer.event_fired(
                    self._now,
                    len(queue) + len(drain) - self._cancelled_in_queue)

    def run_until_idle(self) -> int:
        """Drain every pending event; convenience alias of :meth:`run`."""
        return self.run()

    def step(self) -> bool:
        """Execute the single next event.  Returns ``False`` when idle."""
        if self._running:
            raise SimulationError(
                "simulator is already running (reentrant step)")
        # Outside run() the drain stack is always empty: run() merges
        # it back into the heap on exit.
        while self._queue:
            time_ps, _seq, handle, callback = heapq.heappop(self._queue)
            if handle is not None:
                if handle.cancelled:
                    self._cancelled_in_queue -= 1
                    continue
                handle.fired = True
            self._now = time_ps
            callback()
            return True
        return False

    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`ScheduledEvent.cancel`.

        When more than half of a non-trivial queue is dead weight, the
        heap is rebuilt without the cancelled entries (lazy
        compaction), bounding memory for schedule-and-cancel loops.
        """
        self._cancelled_in_queue += 1
        queue = self._queue
        drain = self._drain
        total = len(queue) + len(drain)
        if (total >= _COMPACT_MIN_EVENTS
                and self._cancelled_in_queue * 2 >= total):
            # In-place so a run() loop holding aliases stays valid.
            queue[:] = [entry for entry in queue
                        if entry[2] is None or not entry[2].cancelled]
            heapq.heapify(queue)
            if drain:
                drain[:] = [entry for entry in drain
                            if entry[2] is None or not entry[2].cancelled]
            self._cancelled_in_queue = 0


class ScheduledEvent:
    """Handle returned by :meth:`Simulator.at`; supports cancellation."""

    __slots__ = ("time_ps", "_callback", "cancelled", "fired", "_sim")

    def __init__(self, time_ps: int, callback: Callback,
                 sim: Optional[Simulator] = None) -> None:
        self.time_ps = time_ps
        self._callback = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    def fire(self) -> None:
        if self.cancelled or self.fired:
            return
        self.fired = True
        self._callback()
