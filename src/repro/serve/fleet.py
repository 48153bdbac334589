"""Fleet construction and measured per-module service times.

The fleet simulation never approximates reconfiguration latency: each
module's cold load time is *measured* by running the spec's
controller's full cycle-level model once per module (through
:meth:`repro.fpga.FleetBoard.reconfigure`), and the scheduler then
replays those integer-picosecond durations as lightweight events.
That keeps a 100k-request serve run fast while every service time
remains exactly what the paper's controller model produces — and,
because the model is bit-reproducible across accel backends, so is
the whole serve run.

Measurements are memoised process-wide by their full content identity
(controller, frequency, module name/size/seed), so a bench sweeping
many load levels of the same scenario pays the controller runs once.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.controllers import build_controller
from repro.errors import ServeError
from repro.fpga.fleet import BitstreamLibrary, FleetBoard
from repro.serve.spec import ServeSpec
from repro.units import Frequency

__all__ = ["ServiceTimeTable", "build_fleet"]

PS_PER_S = 1_000_000_000_000

#: Process-wide memo of measured cold durations, keyed by everything
#: that determines them.  Floats render via ``%g`` (the repo's
#: canonical-key discipline) so equal values share an entry.
_COLD_CACHE: Dict[Tuple[str, str, str, str, int], int] = {}


def build_fleet(spec: ServeSpec) -> List[FleetBoard]:
    """The spec's boards, each with its own controller instance.

    Boards share one (memoising) :class:`BitstreamLibrary` — the
    bitstream bytes are immutable — but never a controller: a
    controller carries per-run device state.
    """
    library = BitstreamLibrary(spec.modules)
    return [FleetBoard(board_id, build_controller(spec.controller),
                       library)
            for board_id in range(spec.boards)]


class ServiceTimeTable:
    """Measured cold service time per module, plus derived rates.

    ``cold_ps`` is the controller's measured reconfiguration duration;
    ``service_ps`` adds the spec's dispatch overhead (cold) or
    substitutes the warm-hit time when the board already holds the
    module.  ``capacity_rps`` is the fleet's aggregate cold-service
    throughput under the tenant traffic mix — the conservative
    denominator the ``load`` axis of SLO curves is defined against
    (warm hits and batching only add headroom above it).
    """

    def __init__(self, spec: ServeSpec) -> None:
        self._spec = spec
        self._cold: Dict[str, int] = {}
        frequency = Frequency.from_mhz(spec.frequency_mhz)
        scratch = None
        for module in sorted(spec.modules, key=lambda m: m.name):
            cache_key = (spec.controller, f"{spec.frequency_mhz:g}",
                         module.name, f"{module.size_kb:g}", module.seed)
            cold = _COLD_CACHE.get(cache_key)
            if cold is None:
                if scratch is None:
                    scratch = FleetBoard(
                        0, build_controller(spec.controller),
                        BitstreamLibrary(spec.modules))
                result = scratch.reconfigure(module.name, frequency)
                cold = _COLD_CACHE[cache_key] = result.duration_ps
            self._cold[module.name] = cold
        #: Cold service time per module: measured load plus overhead.
        self._cold_service: Dict[str, int] = {
            name: cold + spec.overhead_ps
            for name, cold in self._cold.items()}

    def cold_ps(self, module: str) -> int:
        """Measured cold reconfiguration duration (no overhead)."""
        try:
            return self._cold[module]
        except KeyError:
            raise ServeError(
                f"module {module!r} not in the service-time table; "
                f"known: {', '.join(sorted(self._cold))}") from None

    def service_ps(self, module: str, warm: bool) -> int:
        """Service time for one dispatch of ``module``."""
        if warm:
            return self._spec.warm_ps
        service = self._cold_service.get(module)
        if service is None:
            return self.cold_ps(module)  # raises the unknown-module error
        return service

    @property
    def mean_cold_ps(self) -> int:
        """Tenant-mix-weighted mean cold service time (with overhead).

        Each tenant contributes its arrival weight spread uniformly
        over its modules — exactly the workload generator's sampling
        distribution.
        """
        weighted = 0.0
        total = 0.0
        for tenant in self._spec.tenants:
            share = tenant.weight / len(tenant.modules)
            for module in tenant.modules:
                weighted += share * self.service_ps(module, warm=False)
            total += tenant.weight
        return max(1, round(weighted / total))

    @property
    def quantum_ps(self) -> int:
        """The DRR quantum: explicit spec value or mean cold time."""
        return self._spec.quantum_ps or self.mean_cold_ps

    @property
    def capacity_rps(self) -> float:
        """Aggregate cold-service throughput of the fleet (req/s)."""
        return self._spec.boards * PS_PER_S / self.mean_cold_ps

    def resolved_rate_rps(self) -> float:
        """The spec's offered rate: explicit, or load x capacity."""
        if self._spec.rate_rps > 0:
            return self._spec.rate_rps
        return self._spec.load * self.capacity_rps
