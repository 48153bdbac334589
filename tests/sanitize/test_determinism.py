"""DeterminismSanitizer: digest diffing under seeded perturbation."""

import argparse

import pytest

from repro.sanitize import DEFAULT_SEEDS, DeterminismSanitizer
from repro.sanitize.cli import run_sanitized_command
from repro.sim import Delay, Event, Process, Simulator


def order_independent():
    """Same-instant callbacks whose combined result is order-free."""
    sim = Simulator()
    acc = []
    for value in (3, 1, 2):
        sim.call_at(100, lambda value=value: acc.append(value))
    sim.run()
    return sorted(acc)


def order_dependent():
    """The raw accumulation order leaks into the return value."""
    sim = Simulator()
    acc = []
    for value in (3, 1, 2):
        sim.call_at(100, lambda value=value: acc.append(value))
    sim.run()
    return list(acc)


def printing_order_dependent():
    sim = Simulator()
    for value in (3, 1, 2):
        sim.call_at(100, lambda value=value: print(value))
    sim.run()


def test_order_independent_scenario_is_clean():
    sanitizer = DeterminismSanitizer(seeds=(1, 2, 3, 4, 5))
    findings = sanitizer.check(order_independent, name="clean")
    assert findings == []
    # baseline + one run per seed were recorded
    assert len(sanitizer.runs) == 6
    assert len({record.stream_digest for record in sanitizer.runs}) == 1


def test_order_dependent_return_value_diverges():
    sanitizer = DeterminismSanitizer(seeds=tuple(range(1, 9)))
    findings = sanitizer.check(order_dependent, name="racy")
    assert findings, "no seed perturbed the tie-break order"
    assert all(f.rule_id == "S903" for f in findings)
    assert all(f.scenario == "racy" for f in findings)
    # only the *output* moved: the task multiset per instant is the
    # same, so the stream digest stays put and time_ps is -1.
    assert all(f.time_ps == -1 for f in findings)
    assert all("output digest" in f.detail for f in findings)


def test_order_dependent_stdout_diverges():
    sanitizer = DeterminismSanitizer(seeds=tuple(range(1, 9)))
    findings = sanitizer.check(printing_order_dependent, name="printy")
    assert findings
    assert all("output digest" in f.detail for f in findings)


def test_perturbed_runs_are_themselves_reproducible():
    first = DeterminismSanitizer(seeds=(7,))
    second = DeterminismSanitizer(seeds=(7,))
    first.check(order_dependent, name="racy")
    second.check(order_dependent, name="racy")
    assert [r.output_digest for r in first.runs] \
        == [r.output_digest for r in second.runs]
    assert [r.stream_digest for r in first.runs] \
        == [r.stream_digest for r in second.runs]


def test_extra_work_localises_to_the_first_divergent_instant():
    toggle = {"extra": False}

    def scenario():
        sim = Simulator()
        sim.call_at(100, lambda: None)
        if toggle["extra"]:
            sim.call_at(200, lambda: None)
        sim.call_at(300, lambda: None)
        sim.run()

    sanitizer = DeterminismSanitizer(seeds=())
    baseline = sanitizer.run_once(scenario)
    toggle["extra"] = True
    changed = sanitizer.run_once(scenario)
    finding = sanitizer._diff("scenario", baseline, changed)
    assert finding is not None
    assert finding.time_ps == 200


def test_justified_divergences_are_marked():
    sanitizer = DeterminismSanitizer(seeds=tuple(range(1, 9)),
                                     justified=("racy",))
    findings = sanitizer.check(order_dependent, name="racy")
    assert findings and all(f.justified for f in findings)

    qualified = DeterminismSanitizer(seeds=tuple(range(1, 9)),
                                     justified=("S903:racy",))
    findings = qualified.check(order_dependent, name="racy")
    assert findings and all(f.justified for f in findings)


def test_perturbation_seeds_change_tie_break_order():
    # Sanity on the kernel feature itself: some seed in a small pool
    # must produce a non-FIFO permutation of five same-time events.
    import random

    baseline = None
    permutations = set()
    for seed in range(8):
        sim = Simulator()
        sim._perturb = random.Random(seed)
        order = []
        for label in "abcde":
            sim.call_at(50, lambda label=label: order.append(label))
        sim.run()
        permutations.add(tuple(order))
        if baseline is None:
            baseline = tuple(order)
    assert len(permutations) > 1

    # Same-instant children scheduled from inside a running callback
    # are shuffled too, but never ahead of the parent that made them.
    permutations = set()
    for seed in range(8):
        sim = Simulator()
        sim._perturb = random.Random(seed)
        order = []

        def parent():
            order.append("parent")
            for label in "abcde":
                sim.call_at(sim.now,
                            lambda label=label: order.append(label))

        sim.call_at(50, parent)
        sim.run()
        assert order[0] == "parent"
        permutations.add(tuple(order))
    assert len(permutations) > 1


def test_perturbation_never_reorders_across_instants():
    import random

    for seed in range(8):
        sim = Simulator()
        sim._perturb = random.Random(seed)
        order = []
        for time_ps in (100, 200, 300):
            sim.call_at(time_ps, lambda t=time_ps: order.append(t))
        sim.run()
        assert order == [100, 200, 300]


def test_perturbation_respects_scheduler_before_scheduled():
    import random

    for seed in range(16):
        sim = Simulator()
        sim._perturb = random.Random(seed)
        order = []

        def parent():
            order.append("parent")
            sim.call_at(sim.now, lambda: order.append("child"))

        sim.call_at(100, parent)
        sim.call_at(100, lambda: order.append("sibling"))
        sim.run()
        assert order.index("parent") < order.index("child")


# -- planted same-instant races ---------------------------------------
#
# Each scenario below plants one same-instant attribute race whose
# outcome reaches the returned output; S903 must flag every one at the
# default seeds.  ``bump()`` + ``bump()`` races too, but the two
# increments commute, so the output is order-independent and clean.


class Device:
    """Plain model object two callbacks can race on."""

    def __init__(self):
        self.value = 0
        self.log = []

    def bump(self):
        self.value += 1

    def double(self):
        self.value *= 2

    def stash(self):
        self.value = 99

    def observe(self):
        self.log.append(self.value)


def _setter(device, value):
    return lambda *_args: setattr(device, "value", value)


def overwrite():
    sim, device = Simulator(), Device()
    sim.call_at(100, device.stash)
    sim.call_at(100, _setter(device, 7))
    sim.run()
    return device.value


def non_commuting():
    sim, device = Simulator(), Device()
    sim.call_at(100, device.bump)
    sim.call_at(100, device.double)
    sim.run()
    return device.value


def read_into_log():
    sim, device = Simulator(), Device()
    sim.call_at(100, device.bump)
    sim.call_at(100, device.observe)
    sim.run()
    return device.log


def read_decides_schedule():
    sim, device = Simulator(), Device()

    def maybe_schedule():
        if device.value == 0:
            sim.call_at(200, device.bump)

    sim.call_at(100, maybe_schedule)
    sim.call_at(100, device.stash)
    sim.run()
    return device.value


def last_writer(count):
    def scenario():
        sim, device = Simulator(), Device()
        for value in range(count):
            sim.call_at(100, _setter(device, value))
        sim.run()
        return device.value

    return scenario


def three_instant_race():
    """One race at three instants, each sampled 50 ps later.

    Seed 1's shuffle happens to keep the writers' FIFO order at all
    three instants; seeds 2 and 3 do not.
    """
    sim, device = Simulator(), Device()
    for time_ps in (100, 200, 300):
        sim.call_at(time_ps + 50, device.observe)
        sim.call_at(time_ps, device.stash)
        sim.call_at(time_ps, _setter(device, 7))
    sim.run()
    return device.log


def process_resume_vs_callback():
    sim, device = Simulator(), Device()

    def body():
        yield Delay(100)
        device.value = "process"

    Process(sim, body(), name="writer")
    sim.call_at(100, _setter(device, "callback"))
    sim.run()
    return device.value


def event_waiter_vs_callback():
    sim, device = Simulator(), Device()
    done = Event(sim, "done")
    done.add_waiter(_setter(device, "waiter"))
    sim.call_at(100, done.trigger)
    sim.call_at(100, _setter(device, "callback"))
    sim.run()
    return device.value


def nested_waiter_vs_callback():
    sim, device = Simulator(), Device()
    ready = Event(sim, "ready")
    ready.add_waiter(lambda event: setattr(device, "value", event.payload))
    sim.call_at(100, lambda: ready.trigger("waiter"))
    sim.call_at(100, _setter(device, "callback"))
    sim.run()
    return device.value


def commuting_bumps():
    sim, device = Simulator(), Device()
    sim.call_at(100, device.bump)
    sim.call_at(100, device.bump)
    sim.run()
    return device.value


PLANTED_RACES = {
    "overwrite": (overwrite, True),
    "non-commuting": (non_commuting, True),
    "read-into-log": (read_into_log, True),
    "read-decides-schedule": (read_decides_schedule, True),
    "last-writer-3": (last_writer(3), True),
    "last-writer-10": (last_writer(10), True),
    "three-instants": (three_instant_race, True),
    "process-resume": (process_resume_vs_callback, True),
    "event-waiter": (event_waiter_vs_callback, True),
    "nested-waiter": (nested_waiter_vs_callback, True),
    "commuting-bumps": (commuting_bumps, False),
}


@pytest.mark.parametrize("name", sorted(PLANTED_RACES))
def test_planted_races_are_flagged_at_the_default_seeds(name):
    scenario, racy = PLANTED_RACES[name]
    sanitizer = DeterminismSanitizer(seeds=DEFAULT_SEEDS)
    findings = sanitizer.check(scenario, name=name)
    if racy:
        assert findings, f"S903 missed the planted {name} race"
        assert any("output digest" in f.detail for f in findings)
    else:
        assert findings == []


def test_sanitized_command_uses_every_default_seed(capsys):
    # Seed 1 alone misses the three-instant race; the --sanitize
    # entry points must run the full default seed set.
    assert DeterminismSanitizer(seeds=(1,)).check(three_instant_race) \
        == []

    def command(_args):
        print(three_instant_race())
        return 0

    assert run_sanitized_command(command, argparse.Namespace(),
                                 "racy-command") == 1
    out = capsys.readouterr().out
    assert "S903" in out and "racy-command" in out


def test_sanitized_command_reuses_the_unperturbed_run(capsys):
    calls = []

    def command(_args):
        calls.append(len(calls))
        print("table row")
        return 3

    assert run_sanitized_command(command, argparse.Namespace(),
                                 "counting-command") == 3
    assert len(calls) == 1 + len(DEFAULT_SEEDS)
    out = capsys.readouterr().out
    assert out.count("table row") == 1
    assert out.index("table row") < out.index("sanitize: counting-command")
