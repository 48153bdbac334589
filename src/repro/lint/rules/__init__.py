"""Built-in rule modules; importing this package registers them all.

Rule families:

* ``U0xx`` (:mod:`repro.lint.rules.units`) — unit discipline.
* ``U1xx`` (:mod:`repro.lint.rules.xunits`) — cross-function unit
  propagation over the project index.
* ``D1xx`` (:mod:`repro.lint.rules.determinism`) — reproducibility.
* ``E2xx`` (:mod:`repro.lint.rules.events`) — event-kernel safety.
* ``F3xx`` (:mod:`repro.lint.rules.floats`) — float comparisons.
* ``P4xx`` (:mod:`repro.lint.rules.sweepsafety`) — process-safety of
  sweep workers, grids, and digest inputs.
* ``C5xx`` (:mod:`repro.lint.rules.cachekeys`) — cache-key purity.
* ``B8xx`` (:mod:`repro.lint.rules.backend`) — accel backend-contract
  conformance.
"""

from repro.lint.rules import (  # noqa: F401
    backend,
    cachekeys,
    determinism,
    events,
    floats,
    sweepsafety,
    units,
    xunits,
)
