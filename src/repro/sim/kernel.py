"""Event queue and simulator core.

The kernel is a classic calendar loop: a binary heap of
``(time, sequence, callback)`` entries.  The monotonically increasing
sequence number makes event ordering total and deterministic — two
events scheduled for the same picosecond fire in scheduling order,
which keeps every experiment in the repository exactly reproducible.
Because the ``(time, sequence)`` prefix is unique, ``heapq`` never
compares the callbacks.

Three calls schedule onto the queue: :meth:`Simulator.call_at`,
:meth:`Simulator.call_after` and, for a large pre-built storm,
:meth:`Simulator.schedule_batch`.  None returns a handle: nothing the
models schedule is ever cancelled (serve's preemption invalidates a
board's pending completion by generation number instead).

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

#: Queue entry: (time_ps, sequence, callback).
_Entry = Tuple[int, int, Callback]

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
        #: Optional kernel observer (``repro.obs.KernelObserver``
        #: protocol: ``run_started``/``event_fired``/``run_finished``).
        #: The dispatch loop calls ``event_fired`` after each event
        #: when one is attached.
        self.observer = None
        #: Optional dynamic sanitizer (``repro.sanitize`` protocol:
        #: ``on_schedule(callback) -> callback``).
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
        """Number of events still queued."""
        return len(self._queue) + len(self._drain)

    def call_at(self, time_ps: int, callback: Callback) -> None:
        """Schedule ``callback`` at absolute time ``time_ps``."""
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ps} ps: simulation time is "
                f"already {self._now} ps"
            )
        if self.sanitizer is not None:
            callback = self.sanitizer.on_schedule(callback)
        sequence = self._sequence
        if self._perturb is not None:
            sequence = (self._perturb.getrandbits(32) << 40) | sequence
        heapq.heappush(self._queue, (time_ps, sequence, callback))
        self._sequence += 1

    def call_after(self, delay_ps: int, callback: Callback) -> None:
        """Schedule ``callback`` after a relative delay."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps} ps")
        self.call_at(self._now + delay_ps, callback)

    def schedule_batch(self,
                       events: Iterable[Tuple[int, Callback]]) -> int:
        """Bulk scheduling of ``(time_ps, callback)`` pairs.

        Pairs are enqueued in iteration order (ties fire in that
        order); returns the number of events scheduled.  The batch is
        materialised in one pass and the heap rebuilt with a single
        O(n) ``heapify`` — no per-event push or method dispatch — the
        cheapest way to pre-seed a large event storm.
        """
        if self.sanitizer is not None:
            on_schedule = self.sanitizer.on_schedule
            events = [(time_ps, on_schedule(callback))
                      for time_ps, callback in events]
        perturb = self._perturb
        if perturb is None:
            entries: List[_Entry] = [
                (time_ps, sequence, callback)
                for sequence, (time_ps, callback)
                in enumerate(events, self._sequence)
            ]
        else:
            entries = [
                (time_ps, (perturb.getrandbits(32) << 40) | sequence,
                 callback)
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
            self._now = entry[0]
            entry[2]()
            if observer is not None:
                observer.event_fired(self._now, len(queue) + len(drain))
