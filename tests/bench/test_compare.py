"""``python -m bench compare``: verdicts on synthetic result sets."""

import json
import os
import shutil

import pytest

from bench import __main__ as harness
from bench.compare import compare, verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


@pytest.mark.parametrize("scale, expected", [
    (0.8, "better"),
    (1.2, "worse"),
    (1.01, "within bound"),
    (1.0, "within bound"),
])
def test_lower_is_better_verdicts(scale, expected):
    label, _ = verdict(BASE, [value * scale for value in BASE],
                       "lower", 0.10)
    assert label == expected


def test_higher_is_better_flips_the_direction():
    assert verdict(BASE, [value * 1.2 for value in BASE],
                   "higher", 0.10)[0] == "better"
    assert verdict(BASE, [value * 0.8 for value in BASE],
                   "higher", 0.10)[0] == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    shifted = [value * 1.05 for value in noisy]
    assert verdict(noisy, shifted, "lower", 0.10)[0] == "unresolved"
    # ...unless every new run beats every old one.
    assert verdict(noisy, [50.0] * 10, "lower", 0.10)[0] == "better"


def test_a_gain_needs_nine_of_ten_pair_wins():
    mixed = [value * (0.8 if index < 8 else 1.01)
             for index, value in enumerate(BASE)]
    label, wins = verdict(BASE, mixed, "lower", 0.10)
    assert wins == 0.8
    assert label == "within bound"


def test_deterministic_metrics_have_no_slack():
    assert verdict([221.668] * 5, [221.668] * 5, "lower", 0.0)[0] \
        == "within bound"
    assert verdict([221.668] * 5, [221.669] * 5, "lower", 0.0)[0] == "worse"
    assert verdict([0.0] * 5, [0.0] * 5, "lower", 0.0)[0] == "within bound"
    assert verdict([0.0] * 5, [0.2] * 5, "lower", 0.0)[0] == "worse"


def _write_runs(directory, values):
    directory.mkdir()
    for index, value in enumerate(values):
        metrics = {"op_p50_ms": {"value": value, "unit": "ms"},
                   "error_rate": {"value": 0.0, "unit": "fraction"}}
        document = {"mode": "run", "workload": "mode_ii",
                    "started_ns": index, "metrics": metrics}
        (directory / f"mode_ii-{index}.json").write_text(json.dumps(document))
    (directory / "mode_ii-x.layers.json").write_text(
        json.dumps({"mode": "trace", "workload": "mode_ii"}))


def test_compare_reads_result_directories(tmp_path, capsys):
    _write_runs(tmp_path / "a", BASE)
    _write_runs(tmp_path / "b", [value * 1.3 for value in BASE])
    rows = compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert [(row["metric"], row["verdict"]) for row in rows] == [
        ("op_p50_ms", "worse"), ("error_rate", "within bound")]
    assert rows[0]["runs"] == (10, 10)
    assert harness.main(["compare", str(tmp_path / "a"),
                         str(tmp_path / "b")]) == 1
    assert "worse" in capsys.readouterr().out


def test_harness_fails_without_program_sources(tmp_path, monkeypatch,
                                                capsys):
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    monkeypatch.setattr(harness, "ROOT", str(tmp_path))
    monkeypatch.setattr(harness, "OUT", str(tmp_path / "out"))
    assert harness.main(["run", "--workload", "fig5", "--seconds", "1"]) == 1
    captured = capsys.readouterr()
    assert "no program sources" in captured.err
    assert captured.out == ""
    assert [path.name for path in (tmp_path / "out").iterdir()] == ["results"]
