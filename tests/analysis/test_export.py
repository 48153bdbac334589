"""CSV export writers."""

import csv

import pytest

from repro.analysis.comparison import compare_controllers
from repro.analysis.export import (
    export_bandwidth_surface,
    export_comparison,
    export_power_traces,
    write_csv,
)
from repro.analysis.powersweep import fig7_power_sweep
from repro.sweep import PayloadSpec, RunSpec, execute_spec


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_write_csv_counts_rows(tmp_path):
    path = tmp_path / "out.csv"
    count = write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
    assert count == 2
    rows = read_csv(path)
    assert rows[0] == ["a", "b"]
    assert rows[1] == ["1", "2"]


def test_export_bandwidth_surface(tmp_path):
    cell, _ = execute_spec(RunSpec(
        workload="reconfigure", controller="UPaRC_i", frequency_mhz=100.0,
        payload=PayloadSpec(size_kb=6.5, seed=2012)))
    path = tmp_path / "fig5.csv"
    count = export_bandwidth_surface([cell], path)
    assert count == 1
    rows = read_csv(path)
    assert rows[0][0] == "size_kb"
    assert float(rows[1][0]) == 6.5
    assert float(rows[1][2]) < float(rows[1][3])  # effective < theory


def test_export_power_traces(tmp_path):
    points = fig7_power_sweep(frequencies_mhz=(100.0,), size_kb=16.0)
    path = tmp_path / "fig7.csv"
    count = export_power_traces(points, path)
    rows = read_csv(path)
    assert count == len(rows) - 1
    assert count >= 4  # idle, control, plateau, decay samples
    powers = [float(row[2]) for row in rows[1:]]
    assert max(powers) == pytest.approx(259.0)


def test_export_comparison(tmp_path):
    rows = compare_controllers(size_kb=16.0)
    path = tmp_path / "table3.csv"
    count = export_comparison(rows, path)
    assert count == 7
    data = read_csv(path)
    assert data[0][0] == "controller"
    assert {row[6] for row in data[1:]} == {"True"}
