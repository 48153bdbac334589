"""Shared telemetry value types.

One definition of a timestamped sample and an activity interval, so
every recorder in the tree agrees on their shape: the
:mod:`repro.sim.trace` recorders store them, and :mod:`repro.obs`
exports them.

All timestamps are simulation time in integer picoseconds (the
kernel's clock).  Wall-clock quantities never appear in these types;
they are confined to :mod:`repro.obs.profiling`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["Sample", "Interval"]


@dataclass(frozen=True)
class Sample:
    """One timestamped scalar observation (e.g. power in mW)."""

    time_ps: int
    value: float


class Interval(NamedTuple):
    """A half-open activity window ``[begin_ps, end_ps)``.

    A ``NamedTuple`` rather than a dataclass so existing code (and
    tests) that treat intervals as plain ``(begin, end)`` tuples keep
    working unchanged.
    """

    begin_ps: int
    end_ps: int

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.begin_ps
