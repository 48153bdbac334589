"""Open-loop arrival-process workload generation.

The request stream is generated *ahead of* simulation from one seeded
``random.Random``, so a workload is a pure function of its
:class:`~repro.serve.spec.ServeSpec` (plus the resolved aggregate
rate): replaying the same spec replays byte-identical requests, and
the stream digest in every SLO report proves it.

Three arrival models, all open-loop (arrivals never react to service
— the service's backpressure answer is admission control, not source
throttling):

* ``poisson`` — memoryless arrivals at the aggregate rate;
* ``burst``  — a two-state Markov-modulated Poisson process (ON
  periods at :data:`BURST_ON_FACTOR` times the base rate, OFF periods
  at :data:`BURST_OFF_FACTOR`; mean rate equals the base rate);
* ``diurnal`` — sinusoidal rate modulation (a compressed "day" of
  :data:`DIURNAL_PERIOD_S`) realised by thinning a peak-rate Poisson
  stream, which keeps the sampler exact for any modulation depth.

Arrival timestamps are strictly increasing integer picoseconds (equal
draws are bumped by 1 ps), so no two requests share an arrival
instant and each arrival gets its own pass.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import List, Tuple

from repro.errors import ServeError
from repro.serve.spec import RequestSpec, ServeSpec, TenantSpec

__all__ = [
    "BURST_OFF_FACTOR",
    "BURST_ON_FACTOR",
    "BURST_PERIOD_S",
    "DIURNAL_DEPTH",
    "DIURNAL_PERIOD_S",
    "generate_requests",
]

PS_PER_S = 1_000_000_000_000

#: Burst model: ON/OFF rate multipliers and mean phase length.  The
#: factors are chosen so equal mean phase lengths preserve the base
#: rate: (1.8 + 0.2) / 2 = 1.
BURST_ON_FACTOR = 1.8
BURST_OFF_FACTOR = 0.2
BURST_PERIOD_S = 0.02

#: Diurnal model: modulation depth and period of the compressed day.
DIURNAL_DEPTH = 0.6
DIURNAL_PERIOD_S = 0.5


def _tenant_picker(tenants: Tuple[TenantSpec, ...]):
    """Weighted tenant selection via cumulative weights + bisect."""
    cumulative: List[float] = []
    total = 0.0
    for tenant in tenants:
        total += tenant.weight
        cumulative.append(total)

    def pick(rng: random.Random) -> TenantSpec:
        return tenants[bisect_right(cumulative, rng.random() * total)]

    return pick


def _arrival_seconds(spec: ServeSpec, rate_rps: float,
                     rng: random.Random) -> List[float]:
    """Float arrival times (seconds) for ``spec.requests`` arrivals."""
    count = spec.requests
    times: List[float] = []
    now = 0.0
    if spec.arrival == "poisson":
        for _ in range(count):
            now += rng.expovariate(rate_rps)
            times.append(now)
    elif spec.arrival == "burst":
        on = True
        phase_end = rng.expovariate(1.0 / BURST_PERIOD_S)
        while len(times) < count:
            factor = BURST_ON_FACTOR if on else BURST_OFF_FACTOR
            gap = rng.expovariate(rate_rps * factor)
            if now + gap >= phase_end:
                # The gap crosses a phase boundary: restart the
                # memoryless wait at the boundary under the new rate.
                now = phase_end
                on = not on
                phase_end = now + rng.expovariate(1.0 / BURST_PERIOD_S)
                continue
            now += gap
            times.append(now)
    else:  # diurnal (spec validated the model name)
        peak = rate_rps * (1.0 + DIURNAL_DEPTH)
        omega = 2.0 * math.pi / DIURNAL_PERIOD_S
        while len(times) < count:
            now += rng.expovariate(peak)
            instantaneous = rate_rps * (
                1.0 + DIURNAL_DEPTH * math.sin(omega * now))
            if rng.random() * peak < instantaneous:
                times.append(now)
    return times


def generate_requests(spec: ServeSpec,
                      rate_rps: float) -> List[RequestSpec]:
    """The spec's deterministic request stream at ``rate_rps``.

    Returns requests sorted by (strictly increasing) arrival time,
    with ``request_id`` equal to the arrival index.
    """
    if rate_rps <= 0:
        raise ServeError(f"aggregate rate must be positive, got "
                         f"{rate_rps} req/s")
    rng = random.Random(spec.seed)
    pick_tenant = _tenant_picker(spec.tenants)
    requests: List[RequestSpec] = []
    previous_ps = -1
    for request_id, seconds in enumerate(
            _arrival_seconds(spec, rate_rps, rng)):
        arrival_ps = max(previous_ps + 1, round(seconds * PS_PER_S))
        previous_ps = arrival_ps
        tenant = pick_tenant(rng)
        module = tenant.modules[rng.randrange(len(tenant.modules))]
        deadline_ps = arrival_ps + round(tenant.deadline_us * 1e6)
        requests.append(RequestSpec(
            request_id=request_id,
            tenant=tenant.name,
            module=module,
            arrival_ps=arrival_ps,
            deadline_ps=deadline_ps,
            priority=tenant.priority,
        ))
    return requests
