"""``repro.sanitize`` — dynamic race & determinism sanitizers.

TSan-style runtime checkers for the event kernel, measuring
same-instant ordering on real executions:

* :class:`RaceSanitizer` (S901/S902) — happens-before race detection
  over attribute accesses of controller/FPGA/core state
  (:mod:`repro.sanitize.race`).
* :class:`DeterminismSanitizer` (S903) — seeded perturbation of
  same-instant event order with event-stream/output digest diffing
  (:mod:`repro.sanitize.determinism`).  It is the check that sees
  in-place container mutation (``list.append`` from two same-instant
  callbacks), which attribute interposition cannot.

Quick start::

    from repro.sanitize import sanitized

    with sanitized() as sanitizer:
        system = UPaRCSystem()          # auto-instrumented
        system.run(bitstream, frequency)
    for finding in sanitizer.findings:
        print(finding.describe())

CLI: ``python -m repro sanitize [paths...]`` runs scripts under both
sanitizers (:mod:`repro.sanitize.cli`, which also writes SARIF);
``--sanitize`` on the table/figure and sweep commands wraps those runs
the same way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Tuple

from repro.sanitize.determinism import (
    DeterminismSanitizer,
    DivergenceFinding,
    RunRecord,
    StreamRecorder,
)
from repro.sanitize.hb import (
    HBTracker,
    Task,
    TrackerListener,
    VectorClock,
    happens_before,
)
from repro.sanitize.race import (
    ORDER_DIVERGENCE,
    READ_WRITE_RACE,
    RaceSanitizer,
    SanitizerFinding,
    WRITE_WRITE_RACE,
)

__all__ = [
    # happens-before core
    "HBTracker", "Task", "TrackerListener", "VectorClock",
    "happens_before",
    # race sanitizer
    "RaceSanitizer", "SanitizerFinding", "WRITE_WRITE_RACE",
    "READ_WRITE_RACE", "ORDER_DIVERGENCE", "sanitized",
    # determinism sanitizer
    "DeterminismSanitizer", "DivergenceFinding", "RunRecord",
    "StreamRecorder",
]


@contextmanager
def sanitized(auto_instrument: bool = True,
              track_reads: bool = True,
              justified: Tuple[str, ...] = (),
              ) -> Iterator[RaceSanitizer]:
    """Race-sanitize everything simulated inside the block.

    Simulators constructed inside the block are tracked via the
    kernel construction hook; model classes are auto-instrumented
    unless ``auto_instrument=False`` (then only
    :meth:`RaceSanitizer.watch`-ed objects are checked).  Findings
    are on the yielded sanitizer after the block exits.
    """
    sanitizer = RaceSanitizer(auto_instrument=auto_instrument,
                              track_reads=track_reads,
                              justified=justified)
    sanitizer.open()
    try:
        yield sanitizer
    finally:
        sanitizer.close()
