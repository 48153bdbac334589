"""DeterminismSanitizer: digest diffing under seeded perturbation."""

# The order-dependent scenarios deliberately mutate shared lists from
# unordered callbacks; that is what the sanitizer must catch.
# repro-lint: disable=R701

from repro.sanitize import DeterminismSanitizer
from repro.sim import Simulator


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
            sim.at(50, lambda label=label: order.append(label))
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
            sim.at(time_ps, lambda t=time_ps: order.append(t))
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
