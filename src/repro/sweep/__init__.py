"""Experiment sweep engine: grids and process fan-out.

The paper's evaluation is a set of parameter sweeps (controller x
frequency x payload x seed); this package turns them into declarative
grids executed by a process-parallel engine:

* :mod:`repro.sweep.spec`   — :class:`RunSpec`, :class:`SweepGrid`
  and the named grids (``fig5``, ``table1``, ``smoke``);
* :mod:`repro.sweep.engine` — :class:`SweepEngine` and the
  module-level :func:`execute_spec` worker;
* :mod:`repro.sweep.cli`    — ``python -m repro sweep``.

A run generates each distinct payload's bitstream once and hands it
to every cell that uses it; nothing is stored between runs.  Results
are deterministic by construction: cells are sorted by canonical key
before dispatch and re-sorted after collection, so a ``-j 8`` run is
byte-identical to a serial one.
"""

from repro.sweep.engine import (
    SweepEngine,
    SweepResult,
    build_controller,
    execute_spec,
    fan_out,
    table1_ratios,
    to_bandwidth_points,
)
from repro.sweep.spec import (
    FIG5_GRID,
    GRIDS,
    SMOKE_GRID,
    TABLE1_GRID,
    PayloadSpec,
    RunSpec,
    SweepGrid,
)

__all__ = [
    "SweepEngine",
    "SweepResult",
    "build_controller",
    "execute_spec",
    "fan_out",
    "table1_ratios",
    "to_bandwidth_points",
    "FIG5_GRID",
    "GRIDS",
    "SMOKE_GRID",
    "TABLE1_GRID",
    "PayloadSpec",
    "RunSpec",
    "SweepGrid",
]
