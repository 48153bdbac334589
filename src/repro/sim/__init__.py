"""Discrete-event simulation kernel.

A small, deterministic event-driven kernel in the style of hardware
simulators: integer-picosecond timestamps, generator-based processes,
one-shot completion events, and clock domains whose frequency can be
retuned at run time (the mechanism DyCloGen exercises).  Callbacks
are scheduled with ``Simulator.call_at``/``call_after``/
``schedule_batch``; no scheduled event is ever cancelled.

Public surface::

    from repro.sim import Simulator, Process, Delay, WaitEvent, Event
    from repro.sim import Clock, WaitCycles
    from repro.sim import ActivityTrace, ValueTrace
"""

from repro.sim.kernel import Simulator
from repro.sim.process import Delay, Process, WaitCycles, WaitEvent
from repro.sim.signal import Event
from repro.sim.clock import Clock
from repro.sim.trace import ActivityTrace, ValueTrace

__all__ = [
    "Simulator",
    "Process",
    "Delay",
    "WaitEvent",
    "WaitCycles",
    "Event",
    "Clock",
    "ActivityTrace",
    "ValueTrace",
]
