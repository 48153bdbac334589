"""Experiment harnesses: one module per paper table/figure family.

Fig. 5 and Table I have no harness here: their cells run only through
:class:`repro.sweep.SweepEngine` (``FIG5_GRID``, ``TABLE1_GRID``), and
this package's markdown report, validation and campaign modules call
it.  The plain-text table/plot renderers live in :mod:`repro.report`
(re-exported here), beside the CLI commands that print them.

* :mod:`repro.analysis.comparison` — Table III's controller shoot-out.
* :mod:`repro.analysis.powersweep` — Fig. 7's power traces and the
  Section V energy figures.
"""

from repro.analysis.comparison import ComparisonRow, compare_controllers
from repro.analysis.powersweep import (
    PowerSweepPoint,
    fig7_power_sweep,
    energy_comparison,
)
from repro.report import render_table, render_series
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
