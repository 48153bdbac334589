"""Fleet boards: one FPGA + controller + bitstream library.

A :class:`FleetBoard` is the unit the ``repro.serve`` scheduler hands
work to, but it is deliberately serve-agnostic: a board is just a
named FPGA with a reconfiguration controller in front of it and a
:class:`BitstreamLibrary` of the partial bitstreams it may be asked to
load.  Anything that juggles several independent controllers — a
multi-region system, a redundancy experiment, the fleet scheduler —
can use it directly.

The library memoises generated bitstreams per module, so a board that
swaps between the same handful of modules (the Algorithm-On-Demand
workload) pays the generation cost once.  The board remembers which
module its reconfigurable region currently holds, which is what lets
a scheduler exploit module affinity ("warm" boards).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.bitstream.generator import PartialBitstream, generate_bitstream
from repro.errors import FleetError
from repro.units import DataSize, Frequency

if TYPE_CHECKING:  # import would cycle: controllers build on fpga
    from repro.controllers.base import (
        ReconfigurationController,
        ReconfigurationResult,
    )

__all__ = ["ModuleImage", "BitstreamLibrary", "FleetBoard"]


@dataclass(frozen=True, order=True)
class ModuleImage:
    """One loadable module: its name and generator identity.

    ``(size_kb, seed)`` fully determines the bitstream bytes (the
    generator is seeded and otherwise default-parameterised), so the
    library generates each image once and memoises it, as a sweep run
    does with its payloads.
    """

    name: str
    size_kb: float
    seed: int

    def __post_init__(self) -> None:
        if not self.name:
            raise FleetError("module image needs a non-empty name")
        if self.size_kb <= 0:
            raise FleetError(f"module {self.name!r}: size must be "
                             f"positive, got {self.size_kb} KB")


class BitstreamLibrary:
    """Named partial bitstreams, generated lazily and memoised."""

    def __init__(self, modules: Tuple[ModuleImage, ...]) -> None:
        if not modules:
            raise FleetError("a bitstream library needs at least one "
                             "module")
        by_name: Dict[str, ModuleImage] = {}
        for module in modules:
            if module.name in by_name:
                raise FleetError(f"duplicate module name "
                                 f"{module.name!r} in library")
            by_name[module.name] = module
        self._modules = by_name
        self._bitstreams: Dict[str, PartialBitstream] = {}

    @property
    def names(self) -> Tuple[str, ...]:
        """Module names in sorted order (deterministic iteration)."""
        return tuple(sorted(self._modules))

    def __len__(self) -> int:
        return len(self._modules)

    def __contains__(self, name: str) -> bool:
        return name in self._modules

    def image(self, name: str) -> ModuleImage:
        try:
            return self._modules[name]
        except KeyError:
            raise FleetError(
                f"unknown module {name!r}; library has: "
                f"{', '.join(self.names)}") from None

    def bitstream(self, name: str) -> PartialBitstream:
        """The module's partial bitstream (generated on first use)."""
        cached = self._bitstreams.get(name)
        if cached is None:
            image = self.image(name)
            cached = self._bitstreams[name] = generate_bitstream(
                size=DataSize.from_kb(image.size_kb), seed=image.seed)
        return cached


class FleetBoard:
    """One board of a fleet: id + controller + bitstream library.

    The board tracks which module its reconfigurable region currently
    holds (``loaded_module``) and how many reconfigurations it has
    served; :meth:`reconfigure` runs the controller's full cycle-level
    model and updates both.  ``service_generation`` is a bump counter
    a scheduler can use to invalidate in-flight completions when it
    preempts the board.
    """

    def __init__(self, board_id: int,
                 controller: "ReconfigurationController",
                 library: BitstreamLibrary) -> None:
        if board_id < 0:
            raise FleetError(f"board id must be >= 0, got {board_id}")
        self.board_id = board_id
        self.controller = controller
        self.library = library
        #: Name of the module currently configured, or ``None``.
        self.loaded_module: Optional[str] = None
        #: Completed reconfigurations (cold loads through the ICAP).
        self.reconfigurations = 0
        #: Bumped by a scheduler on preemption; an in-flight
        #: completion whose generation no longer matches is stale.
        self.service_generation = 0

    @property
    def name(self) -> str:
        return f"board{self.board_id}"

    def reconfigure(self, module: str,
                    frequency: Optional[Frequency] = None,
                    ) -> "ReconfigurationResult":
        """Load ``module`` through the controller's full model."""
        bitstream = self.library.bitstream(module)
        result = self.controller.reconfigure(bitstream, frequency)
        self.loaded_module = module
        self.reconfigurations += 1
        return result

    def invalidate(self) -> int:
        """Preemption hook: forget the loaded module, bump generation.

        Returns the new generation so the caller can stamp the next
        service it starts.
        """
        self.loaded_module = None
        self.service_generation += 1
        return self.service_generation

    def __repr__(self) -> str:
        loaded = self.loaded_module or "<empty>"
        return (f"FleetBoard({self.board_id}, "
                f"{self.controller.name}, loaded={loaded})")
