"""Wall-clock profiling: the one sanctioned host-time module."""

from repro.obs.profiling import Timer, now_s


def test_now_s_monotonic():
    first = now_s()
    second = now_s()
    assert second >= first


def test_timer_measures_elapsed():
    with Timer() as timer:
        pass
    assert timer.elapsed_s >= 0.0
