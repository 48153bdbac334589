"""Behaviour pins for the DAG scheduler.

Each seeded random graph's schedule reduces to one digest over every
``(task, phase, start_ps, end_ps)`` timeline entry, in order, plus the
reconfiguration and reuse counts.  The digests were recorded before the
scheduler's graph handling was rewritten on :mod:`graphlib`; a changed
schedule for any graph shows here.  The corpus is built to reach the
cases a graph rewrite could get wrong: module reuse, wide fan-out,
priority ties broken by name, a task that lists the same dependency
twice, and input and name orders that are not topological orders.
"""

import hashlib
import random
import runpy
from pathlib import Path

import pytest

from repro.bitstream.generator import generate_bitstream
from repro.core.dag_scheduler import DagScheduler, DagTask
from repro.errors import PolicyError
from repro.units import DataSize, Frequency, us

#: KB of partial bitstream per module; m0 and m1 are the same size, so
#: tasks that differ only in that module tie on priority.
MODULE_KB = {"m0": 4, "m1": 4, "m2": 8, "m3": 12}
REGIONS = ("r0", "r1", "r2")
COMPUTE_US = (0, 100, 100, 250, 400)
SEEDS = range(50)

BITSTREAMS = {
    name: generate_bitstream(size=DataSize.from_kb(kb), seed=index)
    for index, (name, kb) in enumerate(MODULE_KB.items())
}

#: sha256 prefix of each seed's schedule (see ``schedule_digest``).
PINS = {
    0: "0216df367f79a256", 1: "d968b4bb68082ce9", 2: "b341cade6a04d04f",
    3: "335cb81a6f1858c2", 4: "212affa9b3381d46", 5: "cbeddd4a04f1a0a6",
    6: "0183017ba30f6f35", 7: "ae475ba76ad38f9e", 8: "5e9267019855a086",
    9: "90e0695bde401f1d", 10: "0667304dd9504981", 11: "bdcd0a200d9b05f0",
    12: "8710203a6ee2536f", 13: "558d69593aba37cc", 14: "c59b3d241990dfa0",
    15: "32a0533b89bd26ec", 16: "008bed2cd8e4db33", 17: "28128971dfbfc215",
    18: "2c24733bbf86b3c7", 19: "23c82d471da28c7b", 20: "5fc788b7b3a6ca26",
    21: "0c42add0d7a4faea", 22: "c8c5f81ad88c7b4d", 23: "542990dfc55bbc38",
    24: "3833d7501b82419f", 25: "967957937f7d97cb", 26: "02795d429daad62b",
    27: "73945dd5ab0c302d", 28: "3b359e644a88d155", 29: "33a1c2c40cfe500f",
    30: "82642ab29206c674", 31: "0d7fc4b4f24375f7", 32: "32731ef95a69dcdd",
    33: "54cc82b75c226617", 34: "7c1fd5cee81994c9", 35: "3ac26564d6a064f3",
    36: "5a5445bf3af935e6", 37: "d84210401adfad68", 38: "964a20fa95eaf8d6",
    39: "a303e5bd2f6ba9df", 40: "8a387591f014740b", 41: "31ea59ca6ee178c3",
    42: "d9f118aa1085e6d4", 43: "e40661e1b696bd8d", 44: "004f8576ef28329f",
    45: "4fbf0badd7a1f307", 46: "415c55975a1da37e", 47: "c64702846237d7df",
    48: "09569b55cdd4cf09", 49: "d094cc9d710e4d05",
}

#: sha256 of ``examples/task_graph_application.py``'s stdout.
EXAMPLE_STDOUT_SHA256 = (
    "1134c385f291384aedf78943ee5680ae23352d0e99bbf4ecf849f240d2521c3b")


def random_graph(seed):
    rng = random.Random(seed)
    count = rng.randint(1, 18)
    names = [f"t{index:02d}" for index in range(count)]
    rng.shuffle(names)
    regions = REGIONS[:rng.randint(1, len(REGIONS))]
    hub = seed % 5 == 0
    tasks = []
    for index, name in enumerate(names):
        deps = []
        if index:
            deps = rng.sample(names[1 if hub else 0:index],
                              k=rng.randint(0, min(2, index - hub)))
            if hub:
                deps.insert(0, names[0])
            if deps and rng.random() < 0.2:
                deps.append(deps[0])
        module = rng.choice(sorted(MODULE_KB))
        tasks.append(DagTask(
            name=name, module=module, bitstream=BITSTREAMS[module],
            region=rng.choice(regions),
            compute_ps=us(rng.choice(COMPUTE_US)), deps=tuple(deps)))
    rng.shuffle(tasks)
    return tasks


def make_scheduler():
    return DagScheduler(reconfiguration_frequency=Frequency.from_mhz(362.5))


def schedule_digest(tasks):
    report = make_scheduler().schedule(tasks)
    entries = [(entry.task, entry.phase, entry.start_ps, entry.end_ps)
               for entry in report.timeline]
    # Only str and int reach the repr, whose text is fixed across
    # interpreters; the pins below were recorded from it.
    state = (entries, report.reconfigurations, report.reuses)
    blob = repr(state)  # repro-lint: disable=C502
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def critical_path(tasks):
    """HLFET priorities, computed independently of the scheduler."""
    scheduler = make_scheduler()
    by_name = {task.name: task for task in tasks}
    successors = {task.name: set() for task in tasks}
    for task in tasks:
        for dep in task.deps:
            successors[dep].add(task.name)
    memo = {}

    def priority(name):
        if name not in memo:
            task = by_name[name]
            memo[name] = (task.compute_ps
                          + scheduler.reconfigure_ps(task.bitstream.size)
                          + max(map(priority, successors[name]),
                                default=0))
        return memo[name]

    return {name: priority(name) for name in by_name}, successors


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graph_schedule_is_pinned(seed):
    assert schedule_digest(random_graph(seed)) == PINS[seed]


def test_corpus_reaches_the_hard_cases():
    reused = fanned_out = repeated_dep = tied_roots = 0
    for seed in SEEDS:
        tasks = random_graph(seed)
        report = make_scheduler().schedule(tasks)
        priorities, successors = critical_path(tasks)
        reused += report.reuses > 0
        fanned_out += max(map(len, successors.values())) >= 8
        repeated_dep += any(len(set(task.deps)) < len(task.deps)
                            for task in tasks)
        roots = [priorities[task.name] for task in tasks if not task.deps]
        tied_roots += len(set(roots)) < len(roots)
    assert reused >= 10
    assert fanned_out >= 5
    assert repeated_dep >= 5
    assert tied_roots >= 5


def test_priority_tie_goes_to_the_larger_name():
    tasks = [
        DagTask("a", "m0", BITSTREAMS["m0"], "r0", us(100)),
        DagTask("b", "m1", BITSTREAMS["m1"], "r1", us(100)),
    ]
    report = make_scheduler().schedule(tasks)
    preloads = [entry for entry in report.timeline
                if entry.phase == "preload"]
    assert [entry.task for entry in preloads] == ["b", "a"]
    assert preloads[0].start_ps == 0


def test_repeated_dependency_counts_once():
    base = [DagTask("a", "m0", BITSTREAMS["m0"], "r0", us(100)),
            DagTask("b", "m2", BITSTREAMS["m2"], "r1", us(250))]
    once = base + [DagTask("c", "m1", BITSTREAMS["m1"], "r0", us(100),
                           deps=("a", "b"))]
    twice = base + [DagTask("c", "m1", BITSTREAMS["m1"], "r0", us(100),
                            deps=("a", "b", "a"))]
    assert schedule_digest(once) == schedule_digest(twice)


def test_example_output_is_pinned(capsys):
    example = (Path(__file__).resolve().parents[2] / "examples"
               / "task_graph_application.py")
    runpy.run_path(str(example), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLE_STDOUT_SHA256


def cycle_graph(cycle):
    """``cycle`` closed into a ring, fed by ``head`` and feeding
    ``tail``, neither of which is on the cycle."""
    tasks = [DagTask("head", "m0", BITSTREAMS["m0"], "r0", us(100))]
    for index, name in enumerate(cycle):
        deps = (cycle[index - 1],)
        if index == 0:
            deps += ("head",)
        tasks.append(DagTask(name, "m1", BITSTREAMS["m1"], "r1", us(100),
                             deps=deps))
    tasks.append(DagTask("tail", "m2", BITSTREAMS["m2"], "r2", us(100),
                         deps=(cycle[-1],)))
    return tasks


@pytest.mark.parametrize("cycle", [("solo",), ("ping", "pong"),
                                   ("x", "y", "z")],
                         ids=["self-loop", "2-cycle", "3-cycle"])
def test_cycle_is_rejected_naming_its_tasks(cycle):
    with pytest.raises(PolicyError, match="cycle") as caught:
        make_scheduler().schedule(cycle_graph(cycle))
    message = str(caught.value)
    for name in cycle:
        assert repr(name) in message
    for name in ("head", "tail"):
        assert repr(name) not in message
