"""Prefetch scheduler (Section III-A-1)."""

import pytest

from repro.core.scheduler import PrefetchScheduler, Task
from repro.errors import PolicyError
from repro.units import DataSize, Frequency, ms, us


@pytest.fixture(scope="module")
def tasks():
    from repro.bitstream.generator import generate_bitstream
    bitstreams = [generate_bitstream(size=DataSize.from_kb(kb), seed=kb)
                  for kb in (30, 49, 81)]
    return [
        Task("fft", bitstreams[0], compute_ps=ms(5)),
        Task("fir", bitstreams[1], compute_ps=ms(8)),
        Task("viterbi", bitstreams[2], compute_ps=ms(6)),
    ]


@pytest.fixture
def scheduler():
    return PrefetchScheduler(
        reconfiguration_frequency=Frequency.from_mhz(362.5))


def test_sequential_sums_all_phases(scheduler, tasks):
    report = scheduler.sequential(tasks)
    assert report.makespan_ps == sum(entry.duration_ps
                                     for entry in report.timeline)


def test_prefetch_hides_later_preloads(scheduler, tasks):
    reports = scheduler.compare(tasks)
    assert reports["prefetch"].makespan_ps \
        < reports["sequential"].makespan_ps


def test_first_preload_cannot_be_hidden(scheduler, tasks):
    report = scheduler.prefetch(tasks)
    first = report.entries_for("fft")
    preload = next(e for e in first if e.phase == "preload")
    reconfigure = next(e for e in first if e.phase == "reconfigure")
    assert preload.start_ps == 0
    assert reconfigure.start_ps >= preload.end_ps


def test_later_preloads_overlap_previous_compute(scheduler, tasks):
    report = scheduler.prefetch(tasks)
    fft_compute = next(e for e in report.entries_for("fft")
                       if e.phase == "compute")
    fir_preload = next(e for e in report.entries_for("fir")
                       if e.phase == "preload")
    assert fir_preload.start_ps == fft_compute.start_ps
    assert fir_preload.start_ps < fft_compute.end_ps


def test_reconfigure_waits_for_both_region_and_preload(scheduler, tasks):
    report = scheduler.prefetch(tasks)
    for task in tasks:
        entries = {e.phase: e for e in report.entries_for(task.name)}
        assert entries["reconfigure"].start_ps >= entries["preload"].end_ps
        assert entries["compute"].start_ps == entries["reconfigure"].end_ps


def test_savings_equal_hidden_preload_time(scheduler, tasks):
    # With long computations, everything but the first preload hides.
    reports = scheduler.compare(tasks)
    hidden = sum(scheduler.preload_ps(task.bitstream.size)
                 for task in tasks[1:])
    saved = (reports["sequential"].makespan_ps
             - reports["prefetch"].makespan_ps)
    assert saved == pytest.approx(hidden, rel=0.001)


def test_short_compute_spills_preload(scheduler, tasks):
    short = [
        Task("a", tasks[0].bitstream, compute_ps=us(10)),
        Task("b", tasks[1].bitstream, compute_ps=us(10)),
    ]
    savings = scheduler.savings_percent(short)
    # Preloads barely hide behind 10 us of compute.
    assert savings < 5.0


def test_savings_percent_positive_for_long_compute(scheduler, tasks):
    assert scheduler.savings_percent(tasks) > 10.0


def test_savings_follow_compute_granularity(scheduler, tasks):
    """Long tasks hide every later preload, medium ones spill part of
    the 81 KB preload (~1.6 ms), 50 us ones hide almost nothing; the
    relative saving peaks where reconfiguration dominates."""
    bitstreams = [task.bitstream for task in tasks] + [tasks[1].bitstream]
    absolute = {}
    percent = {}
    for label, compute in (("long", ms(5)), ("medium", ms(1)),
                           ("short", us(50))):
        pipeline = [Task(name, bitstream, compute_ps=compute)
                    for name, bitstream in zip(
                        ("fft", "fir", "viterbi", "crc"), bitstreams)]
        reports = scheduler.compare(pipeline)
        absolute[label] = (reports["sequential"].makespan_ps
                           - reports["prefetch"].makespan_ps)
        percent[label] = scheduler.savings_percent(pipeline)
    assert all(saved >= 0 for saved in percent.values())
    assert absolute["long"] >= absolute["medium"] > absolute["short"]
    assert percent["medium"] > percent["long"]
    assert percent["medium"] > 10.0


def test_empty_pipeline(scheduler):
    assert scheduler.sequential([]).makespan_ps == 0
    assert scheduler.prefetch([]).makespan_ps == 0
    assert scheduler.savings_percent([]) == 0.0


def test_negative_compute_rejected(tasks):
    with pytest.raises(PolicyError):
        Task("bad", tasks[0].bitstream, compute_ps=-1)


def test_invalid_preload_bandwidth_rejected():
    with pytest.raises(PolicyError):
        PrefetchScheduler(Frequency.from_mhz(100),
                          preload_bandwidth_mbps=0)


def test_phase_totals(scheduler, tasks):
    report = scheduler.sequential(tasks)
    assert report.phase_total_ps("compute") \
        == sum(task.compute_ps for task in tasks)
