"""Sweep metrics: worker registries merge to the same numbers for any
``-j``, and the cache's byte accounting shows up in them."""

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


def test_cache_byte_accounting_flows_into_metrics(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = SweepEngine(SMOKE_GRID, jobs=1, cache_dir=cache_dir,
                       collect_metrics=True)
    cold.run()
    cold_counters = cold.registry.snapshot()["counters"]
    # Record misses for every cell, plus bitstream-cache misses for
    # each unique payload (later cells may hit the bitstream cache).
    assert cold_counters["sweep.cache.misses"] >= len(SMOKE_GRID)
    assert cold_counters["sweep.cache.bytes_written"] > 0
    assert cold.stats.bytes_written \
        == cold_counters["sweep.cache.bytes_written"]

    warm = SweepEngine(SMOKE_GRID, jobs=2, cache_dir=cache_dir,
                       collect_metrics=True)
    warm.run()
    warm_counters = warm.registry.snapshot()["counters"]
    assert warm_counters["sweep.cache.hits"] == len(SMOKE_GRID)
    assert warm_counters["sweep.cache.misses"] == 0
    assert warm_counters["sweep.cache.bytes_read"] > 0
    assert warm.stats.bytes_read \
        == warm_counters["sweep.cache.bytes_read"]
