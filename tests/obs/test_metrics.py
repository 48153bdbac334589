"""Metrics registry: instruments, snapshots, merging, the null path."""

import gc
import sys

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)


def test_counter_accumulates():
    registry = MetricsRegistry()
    counter = registry.counter("icap.words_written")
    counter.inc()
    counter.inc(41)
    assert counter.value == 42
    assert registry.snapshot()["counters"] == {"icap.words_written": 42}


def test_instruments_memoised_by_name():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c") is registry.histogram("c")
    assert len(registry) == 3


def test_gauge_set_and_high_water():
    registry = MetricsRegistry()
    gauge = registry.gauge("kernel.queue_depth")
    gauge.set(7)
    gauge.high_water(3)
    assert gauge.value == 7
    gauge.high_water(9)
    assert gauge.value == 9


def test_histogram_buckets_and_mean():
    histogram = Histogram("t", bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 5.0, 50.0, 500.0):
        histogram.observe(value)
    assert histogram.counts == [1, 1, 1, 1]
    assert histogram.count == 4
    assert histogram.mean == pytest.approx(555.5 / 4)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(10.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("empty", bounds=())


def test_snapshot_keys_sorted_and_json_safe():
    import json

    registry = MetricsRegistry()
    registry.counter("z.last").inc()
    registry.counter("a.first").inc(2)
    registry.histogram("m.mid").observe(3.0)
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a.first", "z.last"]
    assert json.loads(json.dumps(snapshot)) == snapshot


def _worker_snapshot(counter_value, gauge_value, observations):
    registry = MetricsRegistry()
    registry.counter("cells").inc(counter_value)
    registry.gauge("depth").high_water(gauge_value)
    for value in observations:
        registry.histogram("us").observe(value)
    return registry.snapshot()


def test_merge_counters_add_gauges_max_histograms_add():
    merged = MetricsRegistry()
    merged.merge_snapshot(_worker_snapshot(2, 5, [1.0, 100.0]))
    merged.merge_snapshot(_worker_snapshot(3, 4, [50.0]))
    snapshot = merged.snapshot()
    assert snapshot["counters"]["cells"] == 5
    assert snapshot["gauges"]["depth"] == 5
    assert snapshot["histograms"]["us"]["count"] == 3
    assert snapshot["histograms"]["us"]["total"] == 151.0


def test_merge_is_order_independent():
    parts = [_worker_snapshot(1, i, [float(i)]) for i in range(5)]
    forward = MetricsRegistry()
    for part in parts:
        forward.merge_snapshot(part)
    backward = MetricsRegistry()
    for part in reversed(parts):
        backward.merge_snapshot(part)
    assert forward.snapshot() == backward.snapshot()


def test_merge_rejects_mismatched_bucket_bounds():
    left = MetricsRegistry()
    left.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
    wrong = {"counters": {}, "gauges": {},
             "histograms": {"h": {"bounds": [5.0, 6.0],
                                  "counts": [0, 0, 1],
                                  "total": 7.0, "count": 1}}}
    with pytest.raises(ValueError):
        left.merge_snapshot(wrong)


def test_rows_sorted_by_name():
    registry = MetricsRegistry()
    registry.counter("b").inc()
    registry.gauge("a").set(1)
    registry.histogram("c.t_us").observe(1.0)
    assert registry.rows() == [["a", "gauge", 1], ["b", "counter", 1],
                               ["c.t_us", "histogram", "n=1 mean=1"]]


def test_null_registry_is_shared_singletons():
    registry = NullRegistry()
    assert registry.counter("x") is NULL_REGISTRY.counter("y")
    assert registry.gauge("x") is NULL_REGISTRY.gauge("y")
    assert registry.histogram("x") is NULL_REGISTRY.histogram("y")
    assert not registry.enabled
    assert len(registry) == 0
    assert registry.rows() == []
    assert registry.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": {}}


def test_null_registry_updates_allocate_nothing():
    # The disabled hot path must be allocation-free: instrumented
    # simulation code pays one no-op method call per update and the
    # heap block count stays flat.
    counter = NULL_REGISTRY.counter("kernel.events_dispatched")
    gauge = NULL_REGISTRY.gauge("kernel.queue_depth")
    histogram = NULL_REGISTRY.histogram("system.transfer_us")
    for _ in range(100):  # warm up caches/specialisation
        counter.inc()
        gauge.high_water(3)
        histogram.observe(2.0)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(1000):
        counter.inc()
        counter.inc(7)
        gauge.set(1)
        gauge.high_water(3)
        histogram.observe(2.0)
        NULL_REGISTRY.counter("another.name").inc()
    delta = sys.getallocatedblocks() - before
    # Interpreter-internal noise of a few blocks is fine; what must
    # not happen is one-or-more allocations per iteration.
    assert delta < 50, f"null-registry updates allocated {delta} blocks"


def test_default_buckets_ascending():
    assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
