"""``python -m repro sweep`` surface."""

import json

import pytest

from repro.cli import main


def test_sweep_smoke_grid(capsys):
    assert main(["sweep", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "sweep smoke" in out
    assert "4 cells" in out
    assert "(-j 1, " in out
    assert "cache" not in out


def test_sweep_json_output(tmp_path, capsys):
    out_file = tmp_path / "results.json"
    assert main(["sweep", "smoke", "-j", "2",
                 "--json", str(out_file)]) == 0
    records = json.loads(out_file.read_text())
    assert len(records) == 4
    assert all(record["verified"] for record in records)
    keys = [record["key"] for record in records]
    assert keys == sorted(keys)


@pytest.mark.parametrize("flag", [["--no-cache"],
                                  ["--cache-dir", "somewhere"]],
                         ids=["no-cache", "cache-dir"])
def test_sweep_cache_options_are_gone(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "smoke", *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_sanitize_forces_serial_uncached_and_passes(capsys):
    assert main(["sweep", "smoke", "-j", "4", "--sanitize"]) == 0
    out = capsys.readouterr().out
    # worker processes would escape perturbation, so --sanitize
    # overrides -j.
    assert "-j 1" in out
    assert "sanitize: 0 unjustified" in out
    assert "3 perturbation seed(s)" in out


def test_sweep_sanitize_runs_the_grid_once_per_check(monkeypatch, capsys):
    from repro.sanitize import DEFAULT_SEEDS
    from repro.sweep.engine import SweepEngine

    runs = []
    real_run = SweepEngine.run

    def counting_run(self):
        runs.append(self)
        return real_run(self)

    monkeypatch.setattr(SweepEngine, "run", counting_run)
    assert main(["sweep", "smoke", "--sanitize"]) == 0
    # The unperturbed run's cells are the printed ones; no extra run.
    assert len(runs) == 1 + len(DEFAULT_SEEDS)
    assert "4 cells" in capsys.readouterr().out
