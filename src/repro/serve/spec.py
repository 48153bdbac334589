"""Declarative serve specs: requests, tenants, fleet, policies.

Everything the fleet scheduler consumes is a frozen dataclass with a
canonical ``key``, mirroring ``repro.sweep``'s :class:`RunSpec`
discipline: a serve run is fully determined by its
:class:`ServeSpec`, so replays are deterministic and reports are
content-addressable.  A :class:`RequestSpec` is one reconfiguration
request of the open-loop workload — tenant, module, absolute arrival
and deadline, priority — generated ahead of simulation by
:mod:`repro.serve.workload` and identified by a monotonically
increasing ``request_id`` that breaks every scheduling tie
deterministically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Iterable, Tuple

from repro.controllers import CONTROLLERS
from repro.errors import ServeError
from repro.fpga.fleet import ModuleImage

__all__ = [
    "ARRIVAL_MODELS",
    "DEFAULT_CATALOG",
    "DEFAULT_TENANTS",
    "RequestSpec",
    "ServeSpec",
    "TenantSpec",
    "request_stream_digest",
]

#: Supported arrival-process models (see repro.serve.workload).
ARRIVAL_MODELS: Tuple[str, ...] = ("poisson", "burst", "diurnal")

#: The Algorithm-On-Demand module catalog: a small library of
#: co-processor modules of varied size, each content-addressed by
#: (size, seed).  Sizes stay modest so measuring every module's true
#: reconfiguration latency (one full controller run each) is cheap.
DEFAULT_CATALOG: Tuple[ModuleImage, ...] = (
    ModuleImage("aes_core", size_kb=16.0, seed=411),
    ModuleImage("fir_filter", size_kb=24.0, seed=412),
    ModuleImage("viterbi", size_kb=32.0, seed=413),
    ModuleImage("fft_engine", size_kb=48.0, seed=414),
    ModuleImage("matrix_mult", size_kb=64.0, seed=415),
    ModuleImage("turbo_decoder", size_kb=96.0, seed=416),
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the multi-tenant fleet.

    ``weight`` is the tenant's share of the aggregate arrival rate;
    ``modules`` the subset of the catalog it requests (uniformly);
    ``priority`` its scheduling class (0 = most urgent); and
    ``deadline_us`` the relative deadline stamped on each request.
    """

    name: str
    weight: float
    modules: Tuple[str, ...]
    priority: int = 2
    deadline_us: float = 1000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("tenant needs a non-empty name")
        if self.weight <= 0:
            raise ServeError(f"tenant {self.name!r}: weight must be "
                             f"positive, got {self.weight}")
        if not self.modules:
            raise ServeError(f"tenant {self.name!r}: needs at least "
                             f"one module")
        if self.priority < 0:
            raise ServeError(f"tenant {self.name!r}: priority must be "
                             f">= 0, got {self.priority}")
        if self.deadline_us <= 0:
            raise ServeError(f"tenant {self.name!r}: deadline must be "
                             f"positive, got {self.deadline_us} us")


#: Four tenant classes spanning the interesting scheduling space:
#: an urgent low-rate class with tight deadlines, two interactive
#: classes, and a background batch class that soaks spare capacity.
DEFAULT_TENANTS: Tuple[TenantSpec, ...] = (
    TenantSpec("radar", weight=1.0,
               modules=("fir_filter", "viterbi"),
               priority=0, deadline_us=250.0),
    TenantSpec("video", weight=3.0,
               modules=("fft_engine", "matrix_mult"),
               priority=1, deadline_us=900.0),
    TenantSpec("iot", weight=2.0,
               modules=("aes_core", "fir_filter"),
               priority=2, deadline_us=1500.0),
    TenantSpec("batch", weight=2.0,
               modules=("turbo_decoder", "matrix_mult"),
               priority=3, deadline_us=20000.0),
)


@dataclass(frozen=True)
class RequestSpec:
    """One reconfiguration request of the open-loop stream.

    All times are absolute integer picoseconds on the serve
    simulation's clock.  ``request_id`` is unique and increases with
    arrival time, which makes it the deterministic last-resort
    tie-break in every queue ordering.
    """

    request_id: int
    tenant: str
    module: str
    arrival_ps: int
    deadline_ps: int
    priority: int

    def __post_init__(self) -> None:
        if self.arrival_ps < 0:
            raise ServeError(f"request {self.request_id}: arrival must "
                             f"be >= 0, got {self.arrival_ps}")
        if self.deadline_ps <= self.arrival_ps:
            raise ServeError(f"request {self.request_id}: deadline "
                             f"{self.deadline_ps} ps is not after "
                             f"arrival {self.arrival_ps} ps")

    @property
    def sort_key(self) -> Tuple[int, int, int, int]:
        """Dispatch order: urgency class, deadline, arrival, id."""
        return (self.priority, self.deadline_ps, self.arrival_ps,
                self.request_id)

    def canonical(self) -> str:
        """Exact one-line rendering (the stream-digest unit)."""
        return (f"{self.request_id}|{self.tenant}|{self.module}|"
                f"{self.arrival_ps}|{self.deadline_ps}|{self.priority}")


def request_stream_digest(requests: Iterable[RequestSpec]) -> str:
    """SHA-256 over the canonical renderings, in request-id order.

    The stream is generated sorted by arrival (and ids follow
    arrivals), but sort defensively so the digest is a pure function
    of the *set* of requests.
    """
    lines = "".join(f"{request.canonical()}\n" for request
                    in sorted(requests, key=lambda r: r.request_id))
    return hashlib.sha256(lines.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class ServeSpec:
    """One fleet-serving scenario: fleet, workload, and policies.

    ``rate_rps`` of 0 (the default) resolves the offered load from
    ``load`` as a fraction of measured fleet capacity — the natural
    axis for SLO curves.  Every field participates in :attr:`key`
    (floats via ``%g``), so equal specs render identical keys and a
    key names exactly one reproducible run.
    """

    name: str = "default"
    boards: int = 4
    controller: str = "UPaRC_i"
    frequency_mhz: float = 362.5
    arrival: str = "poisson"
    load: float = 0.8
    rate_rps: float = 0.0
    requests: int = 10_000
    seed: int = 2012
    modules: Tuple[ModuleImage, ...] = DEFAULT_CATALOG
    tenants: Tuple[TenantSpec, ...] = DEFAULT_TENANTS
    #: Global bound on requests queued awaiting dispatch.
    queue_limit: int = 512
    #: Per-tenant bound (enforced before the global bound).
    tenant_limit: int = 256
    #: Maximum requests coalesced into one reconfiguration.
    batch_limit: int = 8
    #: Deficit-round-robin quantum in ps (0: mean cold service time).
    quantum_ps: int = 0
    #: Service time when the board already holds the module.
    warm_ps: int = 2_000_000
    #: Fixed dispatch overhead added to every cold reconfiguration.
    overhead_ps: int = 500_000
    #: Shed requests whose deadline cannot be met even if dispatched
    #: immediately onto a cold board.
    shed_infeasible: bool = False
    #: Allow priority-0 requests to preempt lower-priority service.
    preempt: bool = False
    _module_names: Tuple[str, ...] = field(init=False, repr=False,
                                           compare=False, default=())

    def __post_init__(self) -> None:
        if self.boards < 1:
            raise ServeError(f"fleet needs >= 1 board, got {self.boards}")
        if self.controller not in CONTROLLERS:
            raise ServeError(
                f"unknown controller {self.controller!r}; known: "
                f"{', '.join(CONTROLLERS)}")
        if self.frequency_mhz <= 0:
            raise ServeError(f"frequency must be positive, got "
                             f"{self.frequency_mhz} MHz")
        if self.arrival not in ARRIVAL_MODELS:
            raise ServeError(f"unknown arrival model {self.arrival!r}; "
                             f"known: {', '.join(ARRIVAL_MODELS)}")
        if self.rate_rps < 0:
            raise ServeError(f"rate must be >= 0, got {self.rate_rps}")
        if self.rate_rps <= 0 and self.load <= 0:
            raise ServeError(f"load must be positive when no explicit "
                             f"rate is given, got {self.load}")
        if self.requests < 1:
            raise ServeError(f"need >= 1 request, got {self.requests}")
        if not self.modules:
            raise ServeError("module catalog is empty")
        if not self.tenants:
            raise ServeError("tenant set is empty")
        if self.queue_limit < 1 or self.tenant_limit < 1:
            raise ServeError("queue limits must be >= 1")
        if self.batch_limit < 1:
            raise ServeError(f"batch limit must be >= 1, got "
                             f"{self.batch_limit}")
        if self.warm_ps < 1 or self.overhead_ps < 0 \
                or self.quantum_ps < 0:
            raise ServeError("warm/overhead/quantum times out of range")
        names = tuple(sorted(module.name for module in self.modules))
        if len(set(names)) != len(names):
            raise ServeError("duplicate module names in catalog")
        tenant_names = [tenant.name for tenant in self.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ServeError("duplicate tenant names")
        catalog = set(names)
        for tenant in self.tenants:
            missing = sorted(set(tenant.modules) - catalog)
            if missing:
                raise ServeError(
                    f"tenant {tenant.name!r} requests modules not in "
                    f"the catalog: {', '.join(missing)}")
        object.__setattr__(self, "_module_names", names)

    @property
    def module_names(self) -> Tuple[str, ...]:
        """Catalog module names, sorted."""
        return self._module_names

    @property
    def key(self) -> str:
        """Canonical identity: the sort key and display name."""
        rate = (f"rate{self.rate_rps:g}" if self.rate_rps > 0
                else f"load{self.load:g}")
        flags = ""
        if self.shed_infeasible:
            flags += "+shed"
        if self.preempt:
            flags += "+preempt"
        return (f"serve/{self.name}/{self.controller}"
                f"/{self.frequency_mhz:g}mhz/b{self.boards}"
                f"/{self.arrival}/{rate}/n{self.requests}"
                f"/s{self.seed}{flags}")

    def with_load(self, load: float) -> "ServeSpec":
        """The same scenario at a different offered-load fraction."""
        return replace(self, load=load, rate_rps=0.0)
