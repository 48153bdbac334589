"""The ``repro serve`` command line: run, bench, files, sanitize."""

import json

import pytest

from repro import accel
from repro.cli import main
from repro.serve import fleet

SMALL = ["--requests", "150", "--seed", "5"]


def test_run_prints_slo_and_tenant_tables(capsys):
    assert main(["serve", "run", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "serve --" in out
    assert "throughput" in out
    assert "per-tenant" in out
    for tenant in ("radar", "video", "iot", "batch"):
        assert tenant in out


def test_run_writes_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["serve", "run", *SMALL, "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["requests"] == 150
    assert report["completed"] + report["shed"] == 150
    assert str(path) in capsys.readouterr().out


def test_run_json_is_replayable(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["serve", "run", *SMALL, "--json", str(first)]) == 0
    assert main(["serve", "run", *SMALL, "--json", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_metrics_table(capsys):
    assert main(["serve", "run", *SMALL, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "serve.requests.completed" in out
    assert "serve.dispatch.cold" in out


def test_run_sanitize_clean(monkeypatch, capsys):
    # A cold process: no earlier test has measured the service times,
    # so every sanitized run must see the same (already built) table.
    monkeypatch.setattr(fleet, "_COLD_CACHE", {})
    assert main(["serve", "run", "--requests", "120", "--sanitize"]) \
        == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert f"accel.backend={accel.backend_name()}" in out


def test_run_reports_backend_but_json_stays_backend_free(tmp_path,
                                                         capsys):
    # The printed report attributes the run to the active backend;
    # the JSON report (and therefore its digest) must not, so reports
    # stay byte-identical across backends.
    path = tmp_path / "report.json"
    assert main(["serve", "run", *SMALL, "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "accel.backend" in out
    assert accel.backend_name() in out
    assert "backend" not in path.read_text()


def test_bench_curve_and_output(tmp_path, capsys):
    path = tmp_path / "bench.json"
    assert main(["serve", "bench", *SMALL, "--loads", "2,0.5",
                 "--output", str(path)]) == 0
    out = capsys.readouterr().out
    assert "serve bench --" in out
    assert "300 requests across 2 load levels" in out
    document = json.loads(path.read_text())
    assert document["kind"] == "serve-bench"
    assert document["accel.backend"] == accel.backend_name()
    assert document["loads"] == [0.5, 2.0]
    assert len(document["levels"]) == 2
    assert "_wall_s" not in document
    # Attribution lives at document level only; the per-level reports
    # (whose digests are pinned cross-backend) stay backend-free.
    for cell in document["levels"]:
        assert "backend" not in json.dumps(cell["report"])


def test_bench_merged_metrics(capsys):
    assert main(["serve", "bench", *SMALL, "--loads", "0.5",
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "merged serve metrics" in out
    assert "serve.requests.offered" in out


def test_bench_rejects_bad_loads(capsys):
    for loads in ("fast", "0.5,abc", ","):
        assert main(["serve", "bench", "--loads", loads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --loads {loads!r}" in captured.err


@pytest.mark.parametrize("command, flags, reason", [
    ("run", ["--load", "0"], "load must be positive"),
    ("run", ["--requests", "0"], "need >= 1 request"),
    ("run", ["--boards", "0"], "fleet needs >= 1 board"),
    ("bench", ["--loads", "0.5,-1"], "load must be positive"),
])
def test_invalid_spec_field_is_a_usage_error(command, flags, reason,
                                             capsys):
    assert main(["serve", command, *SMALL, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {reason}" in captured.err


def test_serve_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["serve"])
