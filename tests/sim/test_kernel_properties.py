"""Hypothesis properties of the event kernel.

Total ordering, time monotonicity and cancellation correctness over
randomly generated schedules — the invariants everything above the
kernel silently relies on.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10_000), max_size=100))
def test_events_fire_in_global_time_order(times):
    sim = Simulator()
    fired = []
    for time_ps in times:
        sim.at(time_ps, lambda t=time_ps: fired.append((t, sim.now)))
    sim.run()
    observed = [t for t, _ in fired]
    assert observed == sorted(times)
    # sim.now at fire time equals the event's timestamp.
    assert all(t == now for t, now in fired)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=60),
       st.data())
def test_cancellation_removes_exactly_the_cancelled(times, data):
    sim = Simulator()
    fired = []
    handles = [sim.at(t, lambda i=i: fired.append(i))
               for i, t in enumerate(times)]
    to_cancel = data.draw(st.sets(
        st.integers(0, len(times) - 1), max_size=len(times)))
    for index in to_cancel:
        handles[index].cancel()
    sim.run()
    assert set(fired) == set(range(len(times))) - to_cancel


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5_000), st.integers(0, 5_000)),
                max_size=40))
def test_nested_scheduling_preserves_order(pairs):
    """Events scheduled from within events still fire time-ordered."""
    sim = Simulator()
    trace = []

    for first, delta in pairs:
        def outer(first=first, delta=delta):
            trace.append(sim.now)
            sim.after(delta, lambda: trace.append(sim.now))

        sim.at(first, outer)
    sim.run()
    assert trace == sorted(trace)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1_000), max_size=50),
       st.integers(0, 1_000))
def test_run_until_splits_cleanly(times, bound):
    """run(until) then run() fires everything exactly once, in order."""
    sim = Simulator()
    fired = []
    for time_ps in times:
        sim.at(time_ps, lambda t=time_ps: fired.append(t))
    sim.run(until_ps=bound)
    early = list(fired)
    assert all(t <= bound for t in early)
    sim.run()
    assert fired == sorted(times)


class _DepthCheckingObserver:
    """Records each dispatch and checks the reported queue depth."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []

    def run_started(self, time_ps: int, pending: int) -> None:
        pass

    def run_finished(self, time_ps: int, pending: int) -> None:
        pass

    def event_fired(self, time_ps: int, depth: int) -> None:
        assert time_ps == self.sim.now
        assert depth == self.sim.pending_events
        self.fired.append((time_ps, depth))


_event_spec = st.tuples(
    st.integers(0, 200),                       # time_ps
    st.integers(0, 3),                         # same-instant children
    st.integers(0, 50),                        # delay of the last child
    st.one_of(st.none(), st.integers(0, 50)),  # handle index to cancel
)


def _run_schedule(specs, bound, observed):
    sim = Simulator()
    if observed:
        sim.observer = _DepthCheckingObserver(sim)
    fired = []
    handles = []

    def make(label, depth, children, delay, target):
        def callback():
            fired.append((label, sim.now))
            if target is not None:
                handles[target % len(handles)].cancel()
            if depth == 2:
                return
            for index in range(children):
                child = make(f"{label}.{index}", depth + 1, children,
                             delay, target)
                if index % 2:
                    sim.call_at(sim.now, child)
                else:
                    handles.append(sim.at(sim.now, child))
            sim.call_after(delay, make(f"{label}.late", depth + 1, 0,
                                       delay, None))

        return callback

    for index, (time_ps, children, delay, target) in enumerate(specs):
        handles.append(sim.at(time_ps,
                              make(str(index), 0, children, delay, target)))
    sim.run(until_ps=bound)
    sim.run()
    assert sim.pending_events == 0
    return fired, sim


@settings(max_examples=80, deadline=None)
@given(st.lists(_event_spec, min_size=1, max_size=12),
       st.integers(0, 300))
def test_observer_does_not_change_dispatch(specs, bound):
    """The observer hook neither reorders events nor misreports depth.

    Random schedules with nested same-instant scheduling, cancellations
    and an ``until_ps`` split fire identically with and without a
    recording observer, and every ``event_fired`` depth equals
    ``pending_events`` at that moment (checked inside the observer).
    """
    plain, _ = _run_schedule(specs, bound, observed=False)
    observed, sim = _run_schedule(specs, bound, observed=True)
    assert observed == plain
    assert [time_ps for time_ps, _ in sim.observer.fired] == \
        [time_ps for _, time_ps in plain]
