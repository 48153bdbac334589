"""CSV export of experiment results.

The offline environment has no plotting stack; these writers dump the
Fig. 5 surface, Fig. 7 traces and Table III rows as CSV so users can
plot them with whatever they have.  Everything goes through
:func:`write_csv`, which is deliberately dependency-free (the csv
module handles quoting).
"""

from __future__ import annotations

import csv
import os
from typing import Iterable, List, Sequence, Union

from repro.analysis.comparison import ComparisonRow
from repro.analysis.powersweep import PowerSweepPoint
from repro.sweep.engine import SweepResult

PathLike = Union[str, "os.PathLike[str]"]


def write_csv(path: PathLike, headers: Sequence[str],
              rows: Iterable[Sequence[object]]) -> int:
    """Write one CSV file; returns the row count written."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def export_bandwidth_surface(results: Iterable[SweepResult],
                             path: PathLike) -> int:
    """Fig. 5 surface: one row per reconfigure cell, by size then
    frequency (the order the figure reads in)."""
    cells = sorted(results, key=lambda r: (r.size_kb, r.frequency_mhz))
    return write_csv(
        path,
        ["size_kb", "frequency_mhz", "effective_mbps",
         "theoretical_mbps", "efficiency_percent", "duration_us"],
        ([cell.size_kb, cell.frequency_mhz, cell.effective_mbps,
          cell.theoretical_mbps, cell.efficiency_percent,
          cell.duration_ps / 1e6]
         for cell in cells),
    )


def export_power_traces(points: List[PowerSweepPoint],
                        path: PathLike) -> int:
    """Fig. 7 traces: (frequency, time, power) samples, long format."""
    def rows():
        for point in points:
            for sample in point.trace.samples:
                yield [point.frequency.mhz, sample.time_ps / 1e6,
                       sample.value]
    return write_csv(path, ["frequency_mhz", "time_us", "power_mw"],
                     rows())


def export_comparison(rows: List[ComparisonRow], path: PathLike) -> int:
    """Table III rows."""
    return write_csv(
        path,
        ["controller", "measured_mbps", "paper_mbps",
         "relative_error_percent", "capacity_grade", "fmax_mhz",
         "verified"],
        ([row.controller, row.measured_mbps, row.paper_mbps,
          row.relative_error_percent, row.grade,
          row.max_frequency_mhz, row.verified]
         for row in rows),
    )
