"""Fixture: E201 loop-capture-callback violations."""


def schedule_all(sim, tasks):
    for task in tasks:
        sim.call_after(task.delay_ps, lambda: task.start())  # captures 'task'
        sim.call_after(task.delay_ps, lambda task=task: task.start())  # ok
    for index, item in enumerate(tasks):
        sim.call_at(index, lambda: item.run())  # repro-lint: disable=E201
    sim.call_after(10, lambda: tasks[0].start())  # ok: outside any loop
