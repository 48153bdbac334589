"""Sweep metrics: worker registries merge to the same numbers for any
``-j``, and payload generation shows up in them once per payload."""

import pytest

from repro.sweep import SMOKE_GRID, SweepEngine


@pytest.fixture(scope="module")
def serial_engine():
    engine = SweepEngine(SMOKE_GRID, jobs=1, collect_metrics=True)
    engine.run()
    return engine


def test_serial_metrics_cover_the_grid(serial_engine):
    counters = serial_engine.registry.snapshot()["counters"]
    assert counters["sweep.cells"] == len(SMOKE_GRID)
    assert counters["system.reconfigurations"] == len(SMOKE_GRID)
    assert counters["kernel.events_dispatched"] > 0


def test_parallel_merge_equals_serial(serial_engine):
    parallel = SweepEngine(SMOKE_GRID, jobs=4, collect_metrics=True)
    parallel.run()
    # The registry holds sim-time metrics only, so worker count cannot
    # leak into it.
    assert parallel.registry.snapshot() \
        == serial_engine.registry.snapshot()


def test_engine_times_the_fan_out_outside_the_registry(serial_engine):
    snapshot = serial_engine.registry.snapshot()
    assert not [name for kind in snapshot.values() for name in kind
                if name.startswith("wall.")]
    assert serial_engine.wall_s > 0.0
    assert 0.0 < serial_engine.utilization <= 1.5


def test_metrics_off_by_default():
    engine = SweepEngine(SMOKE_GRID, jobs=1)
    engine.run()
    assert engine.registry.snapshot() == {
        "counters": {}, "gauges": {},
        "histograms": {}}


def test_metrics_count_generation_once_per_payload(serial_engine):
    """Payloads are generated in the parent under the run's registry:
    one synthesis per distinct payload, not per cell, for any ``-j``."""
    from repro import accel
    prefix = f"accel.{accel.backend_name()}.synthesize_payload"
    counters = serial_engine.registry.snapshot()["counters"]
    assert counters[prefix + ".calls"] == len(SMOKE_GRID.payloads)
    assert counters["sweep.cells"] == len(SMOKE_GRID)
    assert not [name for name in counters
                if name.startswith("sweep.cache.")]
