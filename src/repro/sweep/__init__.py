"""Experiment sweep engine: grids and process fan-out.

The paper's evaluation is a set of parameter sweeps (controller x
frequency x payload x seed); this package turns them into declarative
grids executed by a process-parallel engine:

* :mod:`repro.sweep.spec`   — :class:`RunSpec`, :class:`SweepGrid`
  and the named grids (``fig5``, ``table1``, ``smoke``);
* :mod:`repro.sweep.engine` — :class:`SweepEngine`, the module-level
  :func:`execute_spec` worker, and the two reductions the paper
  quotes (:func:`table1_ratios`, Fig. 5's :func:`anchor_points`);
* :mod:`repro.sweep.cli`    — ``python -m repro sweep``.

A run generates each distinct payload's bitstream once and hands it
to every cell that uses it; nothing is stored between runs.  Results
are deterministic by construction: cells are sorted by canonical key
before dispatch and re-sorted after collection, so a ``-j 8`` run is
byte-identical to a serial one.

This package is the one runner of the paper's grids: ``repro table1``,
``fig5``, ``report``, ``validate`` and the Table I campaign all run a
Fig. 5 or Table I cell through :class:`SweepEngine`.
"""

from repro.sweep.engine import (
    SweepEngine,
    SweepResult,
    anchor_points,
    execute_spec,
    fan_out,
    table1_ratios,
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
    "anchor_points",
    "execute_spec",
    "fan_out",
    "table1_ratios",
    "FIG5_GRID",
    "GRIDS",
    "SMOKE_GRID",
    "TABLE1_GRID",
    "PayloadSpec",
    "RunSpec",
    "SweepGrid",
]
