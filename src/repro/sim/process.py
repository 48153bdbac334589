"""Generator-based simulation processes.

A process is a Python generator that yields *wait commands*; the
:class:`Process` wrapper schedules its resumption on the kernel.  Three
commands cover everything the hardware models need:

* :class:`Delay`    — wait a fixed number of picoseconds.
* :class:`WaitCycles` — wait N cycles of a (possibly retunable) clock,
  evaluated at the clock's frequency when the wait begins.
* :class:`WaitEvent`  — park until a one-shot :class:`~repro.sim.signal.Event`
  triggers; the event payload is sent back into the generator.

Example::

    def transfer(sim, clk, icap):
        for word in words:
            icap.write(word)
            yield WaitCycles(clk, 1)
        done.trigger()

    Process(sim, transfer(sim, clk, icap))
    sim.run()
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.kernel import Simulator
from repro.sim.signal import Event


class Delay:
    """Wait command: suspend for ``duration_ps`` picoseconds."""

    __slots__ = ("duration_ps",)

    def __init__(self, duration_ps: int) -> None:
        if duration_ps < 0:
            raise SimulationError(f"negative delay: {duration_ps}")
        self.duration_ps = duration_ps


class WaitCycles:
    """Wait command: suspend for ``cycles`` ticks of ``clock``."""

    __slots__ = ("clock", "cycles")

    def __init__(self, clock: Clock, cycles: int) -> None:
        if cycles < 0:
            raise SimulationError(f"negative cycle count: {cycles}")
        self.clock = clock
        self.cycles = cycles


class WaitEvent:
    """Wait command: suspend until ``event`` triggers."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class Process:
    """Drives a generator coroutine on the simulation kernel.

    The process starts immediately (its first segment runs at creation
    time at the current simulation instant, matching the behaviour of a
    module reacting to the edge that spawned it).  When the generator
    returns, :attr:`finished` triggers with the generator's return
    value.
    """

    def __init__(
        self,
        sim: Simulator,
        generator: Generator[Any, Any, Any],
        name: str = "process",
    ) -> None:
        self._sim = sim
        self._generator = generator
        self.name = name
        self.finished = Event(sim, f"{name}.finished")
        self._resume(None)

    @property
    def done(self) -> bool:
        return self.finished.triggered

    @property
    def result(self) -> Any:
        """Return value of the generator; only valid once :attr:`done`."""
        if not self.done:
            raise SimulationError(f"process {self.name!r} still running")
        return self.finished.payload

    def _resume(self, send_value: Any) -> None:
        try:
            command = self._generator.send(send_value)
        except StopIteration as stop:
            self.finished.trigger(stop.value)
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, Delay):
            self._sim.call_after(command.duration_ps,
                                 lambda: self._resume(None))
        elif isinstance(command, WaitCycles):
            duration = command.clock.cycles_duration(command.cycles)
            self._sim.call_after(duration, lambda: self._resume(None))
        elif isinstance(command, WaitEvent):
            command.event.add_waiter(
                lambda event: self._resume(event.payload)
            )
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command: "
                f"{command!r}"
            )

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name}, {state})"
