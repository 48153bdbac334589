"""``python -m repro sweep`` surface."""

import json

from repro.cli import main


def test_sweep_smoke_grid(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "smoke", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "sweep smoke" in out
    assert "4 cells" in out
    assert "misses" in out


def test_sweep_json_output(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    out_file = tmp_path / "results.json"
    assert main(["sweep", "smoke", "-j", "2", "--cache-dir", cache_dir,
                 "--json", str(out_file)]) == 0
    records = json.loads(out_file.read_text())
    assert len(records) == 4
    assert all(record["verified"] for record in records)
    keys = [record["key"] for record in records]
    assert keys == sorted(keys)


def test_sweep_no_cache(tmp_path, capsys):
    assert main(["sweep", "smoke", "--no-cache"]) == 0
    assert "cache off" in capsys.readouterr().out


def test_cached_rerun_reports_all_hits(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "smoke", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["sweep", "smoke", "--cache-dir", cache_dir]) == 0
    assert "4 hits, 0 misses" in capsys.readouterr().out


def test_sweep_sanitize_forces_serial_uncached_and_passes(tmp_path,
                                                          capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "smoke", "-j", "4", "--cache-dir", cache_dir,
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    # workers would escape perturbation and cache hits would skip
    # execution entirely, so --sanitize overrides both.
    assert "-j 1" in out
    assert "cache off" in out
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
