"""Task-stream tracking: labels, instant boundaries, task counts."""

from repro.sanitize.hb import HBTracker, TrackerListener
from repro.sim import Event


class Recorder(TrackerListener):
    """Collects the task stream and instant boundaries for asserts."""

    def __init__(self):
        self.tasks = []
        self.instants = []

    def on_task_begin(self, task):
        self.tasks.append(task)

    def on_instant_end(self, time_ps: int):
        self.instants.append(time_ps)


def tracked(sim):
    tracker = HBTracker(sim)
    recorder = Recorder()
    tracker.listeners.append(recorder)
    sim.sanitizer = tracker
    return tracker, recorder


# -- labels -----------------------------------------------------------

def test_deliveries_are_labelled_with_their_source(sim):
    tracker, recorder = tracked(sim)
    go = Event(sim, "go")
    done = Event(sim, "done")
    go.add_waiter(lambda ev: None)
    done.add_waiter(lambda ev: None)
    sim.call_at(100, go.trigger)
    sim.call_at(100, lambda: done.trigger(1))
    sim.run()
    tracker.finish()
    deliveries = sorted(task.label.split(" <- ")[1]
                        for task in recorder.tasks if " <- " in task.label)
    assert deliveries == ["done", "go"]


# -- instant boundaries -----------------------------------------------

def test_instant_end_fires_between_instants_and_at_finish(sim):
    tracker, recorder = tracked(sim)
    sim.call_at(100, lambda: None)
    sim.call_at(100, lambda: None)
    sim.call_at(200, lambda: None)
    sim.run()
    assert recorder.instants == [100]  # 200 still open
    tracker.finish()
    assert recorder.instants == [100, 200]
    tracker.finish()  # idempotent
    assert recorder.instants == [100, 200]


def test_tasks_run_counts_every_dispatch(sim):
    tracker, recorder = tracked(sim)
    for _ in range(3):
        sim.call_at(10, lambda: None)
    sim.run()
    tracker.finish()
    assert tracker.tasks_run == 3
    assert len(recorder.tasks) == 3
