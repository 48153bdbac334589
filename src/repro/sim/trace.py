"""Trace recorders: value waveforms and activity intervals.

Two recorders support the paper's measurements:

* :class:`ValueTrace` — a timestamped series of samples, used for the
  Fig. 7 power-vs-time curves.
* :class:`ActivityTrace` — open/close intervals during which a
  component is *active* (clock enabled, toggling).  The power model
  integrates dynamic energy over these intervals; the EN gating that
  UReC applies after "Finish" shows up as the interval closing.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SimulationError
from repro.obs.primitives import Interval, Sample
from repro.sim.kernel import Simulator


class ValueTrace:
    """Timestamped samples of a scalar quantity (e.g. power in mW)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[Sample] = []

    def record(self, time_ps: int, value: float) -> None:
        if self.samples and time_ps < self.samples[-1].time_ps:
            raise SimulationError(
                f"trace {self.name!r}: samples must be time-ordered"
            )
        self.samples.append(Sample(time_ps, value))

    def value_at(self, time_ps: int) -> float:
        """Zero-order hold lookup (value of the latest sample <= t)."""
        if not self.samples:
            raise SimulationError(f"trace {self.name!r} is empty")
        result = self.samples[0].value
        for sample in self.samples:
            if sample.time_ps > time_ps:
                break
            result = sample.value
        return result

    def integral(self) -> float:
        """Integral of value dt over the trace (zero-order hold).

        With power in milliwatts and time in picoseconds the result is
        mW*ps; callers convert (``repro.power.energy`` does).
        """
        total = 0.0
        for left, right in zip(self.samples, self.samples[1:]):
            total += left.value * (right.time_ps - left.time_ps)
        return total

    def peak(self) -> float:
        if not self.samples:
            raise SimulationError(f"trace {self.name!r} is empty")
        return max(sample.value for sample in self.samples)

    def __len__(self) -> int:
        return len(self.samples)


class ActivityTrace:
    """Intervals during which a component is active.

    Components call :meth:`begin` / :meth:`end`; nested begins are legal
    (reference counted) because e.g. the BRAM is active both while the
    manager preloads it and while UReC drains it.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        #: Closed intervals; :class:`Interval` is tuple-compatible, so
        #: code treating entries as ``(begin, end)`` pairs still works.
        self.intervals: List[Interval] = []
        self._depth = 0
        self._opened_at: Optional[int] = None

    @property
    def active(self) -> bool:
        return self._depth > 0

    def begin(self) -> None:
        if self._depth == 0:
            self._opened_at = self._sim.now
        self._depth += 1

    def end(self) -> None:
        if self._depth == 0:
            raise SimulationError(
                f"activity {self.name!r}: end() without matching begin()"
            )
        self._depth -= 1
        if self._depth == 0:
            assert self._opened_at is not None
            self.intervals.append(Interval(self._opened_at, self._sim.now))
            self._opened_at = None

    def close(self) -> None:
        """Force-close any open interval (end of simulation cleanup)."""
        while self._depth > 0:
            self.end()

    def total_active_ps(self, start_ps: int = 0,
                        end_ps: Optional[int] = None) -> int:
        """Active picoseconds within ``[start_ps, end_ps)``.

        An interval still open when called is counted up to ``now``.
        """
        bound = end_ps if end_ps is not None else self._sim.now
        total = 0
        intervals = list(self.intervals)
        if self._depth > 0 and self._opened_at is not None:
            intervals.append((self._opened_at, self._sim.now))
        for begin, end in intervals:
            lo = max(begin, start_ps)
            hi = min(end, bound)
            if lo < hi:
                total += hi - lo
        return total

    def active_at(self, time_ps: int) -> bool:
        """Whether the component was active at the given instant."""
        if self._depth > 0 and self._opened_at is not None \
                and self._opened_at <= time_ps:
            return True
        return any(begin <= time_ps < end for begin, end in self.intervals)
