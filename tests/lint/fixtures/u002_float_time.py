"""Fixture: U002 float-time-arg violations."""


def run(sim, controller, cb):
    sim.call_after(1.5, cb)  # float literal delay
    sim.call_at(total / 2, cb)  # true division stays float
    controller.start(timeout_ps=2.5)  # float into *_ps keyword
    sim.call_after(round(total / 2), cb)  # ok: explicit coercion
    sim.call_at(sim.now + 1_000, cb)  # ok: integer arithmetic
    sim.call_after(0.5, cb)  # repro-lint: disable=U002
