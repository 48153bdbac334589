"""``repro.sanitize`` — the dynamic determinism sanitizer (S903).

:class:`DeterminismSanitizer` re-runs a scenario under seeded
perturbation of same-instant event order and diffs event-stream and
output digests against the unperturbed run
(:mod:`repro.sanitize.determinism`).  Any output that depends on an
order the kernel never promised — two callbacks overwriting one
attribute, a read racing a write, ``list.append`` from two
same-instant callbacks — shows up as a digest difference.

Quick start::

    from repro.sanitize import DeterminismSanitizer

    sanitizer = DeterminismSanitizer()
    for finding in sanitizer.check(scenario, name="my-scenario"):
        print(finding.describe())

CLI: ``python -m repro sanitize [paths...]`` runs scripts under the
sanitizer (:mod:`repro.sanitize.cli`, which also writes SARIF);
``--sanitize`` on the table/figure, serve and sweep commands checks
those runs the same way.
"""

from __future__ import annotations

from repro.sanitize.determinism import (
    DEFAULT_SEEDS,
    ORDER_DIVERGENCE,
    DeterminismSanitizer,
    DivergenceFinding,
    RunRecord,
    StreamRecorder,
)
from repro.sanitize.hb import HBTracker, Task, TrackerListener

__all__ = [
    # task-stream tracking
    "HBTracker", "Task", "TrackerListener",
    # determinism sanitizer
    "DEFAULT_SEEDS", "DeterminismSanitizer", "DivergenceFinding",
    "ORDER_DIVERGENCE", "RunRecord", "StreamRecorder",
]
