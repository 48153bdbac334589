"""Experiment harnesses: one module per paper table/figure family.

* :mod:`repro.analysis.bandwidth`  — Fig. 5's bandwidth-vs-frequency-
  vs-size surface.
* :mod:`repro.analysis.comparison` — Table III's controller shoot-out.
* :mod:`repro.analysis.powersweep` — Fig. 7's power traces and the
  Section V energy figures.
* :mod:`repro.analysis.report`     — plain-text table/plot rendering
  shared by the CLI commands.
"""

from repro.analysis.bandwidth import BandwidthPoint, bandwidth_surface
from repro.analysis.comparison import ComparisonRow, compare_controllers
from repro.analysis.powersweep import (
    PowerSweepPoint,
    fig7_power_sweep,
    energy_comparison,
)
from repro.analysis.report import render_table, render_series
from repro.analysis.reliability import (
    ControllerReliability,
    ScrubPolicy,
    controller_reliability,
    optimal_scrub_period,
)
from repro.analysis.sensitivity import (
    bram_capacity_tradeoff,
    compression_threshold,
    control_overhead_sensitivity,
)
from repro.analysis.campaign import (
    Spread,
    table1_campaign,
    table3_campaign,
)
from repro.analysis.export import (
    export_bandwidth_surface,
    export_comparison,
    export_power_traces,
    write_csv,
)

__all__ = [
    "BandwidthPoint",
    "bandwidth_surface",
    "ComparisonRow",
    "compare_controllers",
    "PowerSweepPoint",
    "fig7_power_sweep",
    "energy_comparison",
    "render_table",
    "render_series",
    "ControllerReliability",
    "ScrubPolicy",
    "controller_reliability",
    "optimal_scrub_period",
    "bram_capacity_tradeoff",
    "compression_threshold",
    "control_overhead_sensitivity",
    "Spread",
    "table1_campaign",
    "table3_campaign",
    "export_bandwidth_surface",
    "export_comparison",
    "export_power_traces",
    "write_csv",
]
