"""Generator-process scheduling."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    Clock,
    Delay,
    Event,
    Process,
    WaitCycles,
    WaitEvent,
)
from repro.units import Frequency


def test_process_runs_first_segment_immediately(sim):
    seen = []

    def body():
        seen.append(sim.now)
        yield Delay(10)

    Process(sim, body())
    assert seen == [0]


def test_delay_advances_time(sim):
    times = []

    def body():
        yield Delay(100)
        times.append(sim.now)
        yield Delay(50)
        times.append(sim.now)

    Process(sim, body())
    sim.run()
    assert times == [100, 150]


def test_wait_cycles_uses_current_frequency(sim):
    clock = Clock(sim, "clk", Frequency.from_mhz(100))
    times = []

    def body():
        yield WaitCycles(clock, 10)   # 100 ns
        times.append(sim.now)
        clock.retune(Frequency.from_mhz(200))
        yield WaitCycles(clock, 10)   # 50 ns
        times.append(sim.now)

    Process(sim, body())
    sim.run()
    assert times == [100_000, 150_000]


def test_wait_event_receives_payload(sim):
    event = Event(sim, "go")
    received = []

    def waiter():
        payload = yield WaitEvent(event)
        received.append(payload)

    Process(sim, waiter())
    sim.call_after(500, lambda: event.trigger("data"))
    sim.run()
    assert received == ["data"]
    assert sim.now == 500


def test_process_result_after_return(sim):
    def body():
        yield Delay(1)
        return 42

    process = Process(sim, body())
    sim.run()
    assert process.done
    assert process.result == 42


def test_result_before_done_raises(sim):
    def body():
        yield Delay(1)

    process = Process(sim, body())
    with pytest.raises(SimulationError):
        _ = process.result


def test_unsupported_yield_raises(sim):
    def body():
        yield "not-a-command"

    with pytest.raises(SimulationError):
        Process(sim, body())


def test_two_processes_interleave(sim):
    log = []

    def producer(event):
        yield Delay(30)
        log.append(("produced", sim.now))
        event.trigger("item")

    def consumer(event):
        item = yield WaitEvent(event)
        log.append(("consumed", sim.now, item))

    event = Event(sim, "item")
    Process(sim, consumer(event), name="consumer")
    Process(sim, producer(event), name="producer")
    sim.run()
    assert log == [("produced", 30), ("consumed", 30, "item")]
