"""The bench workloads, run in-process at tiny op counts.

Each workload runs on every accel backend available here (the harness
itself always builds and selects native).  The checks: every metric
carries its name and unit, nothing fails at the default seed, the
per-op fingerprints match ``bench/goldens.json`` on every backend, a
tampered golden is counted as a failure, and a traced run is sound.
"""

import copy
import json
import os

import pytest

from bench.compare import WALL_READINGS, METRICS
from bench.workloads import WORKLOADS, load_goldens, run_workload
from repro import accel

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Op counts that touch each workload's main paths while keeping the
#: whole module within seconds on the pure backend.
OPS = {"mode_ii": 1, "fig5": 2, "table1_codecs": 6, "serve_steady": 1,
       "serve_overload": 1}

#: Simulated results pinned by earlier reports at the default seed.
PINNED = {
    "mode_ii": {"sim_reconfig_us": 221.667929},
    "serve_steady": {"sim_p99_us": 131.313159},
    "serve_overload": {"sim_p99_us": 1960.1584},
}

DETERMINISTIC = ("paper_err_pp", "sim_reconfig_us", "sim_p99_us",
                 "sim_goodput_rps")


@pytest.fixture(scope="module")
def run():
    """``run(workload, backend)``: one tiny run per pair, shared."""
    documents = {}

    def get(workload, backend):
        if (workload, backend) not in documents:
            with accel.using(backend):
                documents[workload, backend] = run_workload(
                    workload, ops=OPS[workload])
        return documents[workload, backend]

    return get


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_named_with_its_unit(run, workload):
    document = run(workload, accel.backend_name())
    metrics = document["metrics"]
    for entry in _benchmark()["end_to_end"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    for name, entry in metrics.items():
        unit = METRICS[name][0] if name in METRICS else WALL_READINGS[name]
        assert entry["unit"] == unit
    assert metrics["error_rate"]["value"] == 0
    assert document["failed"] == 0, document["failures"]


def test_benchmark_json_agrees_with_the_harness():
    benchmark = _benchmark()
    assert [entry["name"] for entry in benchmark["workloads"]] \
        == list(WORKLOADS)
    for entry in benchmark["end_to_end"]:
        assert METRICS[entry["name"]] == (entry["unit"], entry["better"],
                                          entry["bound"])
    assert benchmark["paths"] == ["bench", "tests/bench"]


@pytest.mark.parametrize("backend", accel.available_backends())
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fingerprints_match_goldens_on_every_backend(run, workload, backend):
    document = run(workload, backend)
    assert document["failed"] == 0, document["failures"]
    assert document["attempted"] == OPS[workload] + 1  # + the warm-up op
    goldens = load_goldens()[workload]
    for kind, fingerprint in document["fingerprints"].items():
        assert goldens[kind] == fingerprint
    metrics = {name: entry["value"]
               for name, entry in document["metrics"].items()}
    for name, value in PINNED.get(workload, {}).items():
        assert metrics[name] == value
    reference = run(workload, "pure")["metrics"]
    for name in DETERMINISTIC:
        if name in metrics:
            assert metrics[name] == reference[name]["value"]


def test_a_tampered_golden_counts_as_a_failed_op():
    goldens = copy.deepcopy(load_goldens())
    first = sorted(goldens["fig5"])[0]
    goldens["fig5"][first][1] ^= 1
    document = run_workload("fig5", ops=1, goldens=goldens)
    assert document["failed"] == 2  # the warm-up op and the timed op
    assert document["metrics"]["error_rate"]["value"] == 1.0
    assert "differs from golden" in document["failures"][0]


def test_other_seeds_skip_goldens_but_keep_intrinsic_checks():
    document = run_workload("mode_ii", seed=7, ops=1)
    assert document["failed"] == 0
    assert list(document["fingerprints"]) == ["s7"]


@pytest.fixture
def cold_service_times(monkeypatch):
    """Serve set-up measures its service times only on a memo miss."""
    from repro.serve import fleet
    monkeypatch.setattr(fleet, "_COLD_CACHE", {})


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_sound(workload, cold_service_times):
    document = run_workload(workload, ops=1, trace=True)
    assert document["soundness"] == []
    assert document["failed"] == 0, document["failures"]
    fired = {name for name, entry in document["layers"].items()
             if entry["calls"]}
    fired |= set(document["setup_layers"])
    assert set(WORKLOADS[workload]().boundaries) <= fired
    assert document["derived"]["trace.call_cost_ns"]["value"] > 0
    flat = {f"{layer}.{key}" for layer, entry in document["layers"].items()
            for key in entry} | set(document["derived"])
    for entry in _benchmark()["per_layer"]:
        assert entry["name"] in flat


def test_tracing_leaves_the_program_unwrapped():
    from repro.serve.service import FleetService
    from repro.sim.kernel import Simulator
    before = (Simulator.run, FleetService._pass)
    run_workload("fig5", ops=1, trace=True)
    assert (Simulator.run, FleetService._pass) == before
