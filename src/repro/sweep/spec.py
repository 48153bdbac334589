"""Declarative parameter grids and their expansion into run specs.

A :class:`SweepGrid` names the axes of one experiment — which
controllers (or codecs), which frequencies, which payloads — and
:meth:`SweepGrid.expand` turns it into a flat list of independent
:class:`RunSpec` records.  Every spec is self-contained (a worker
process can execute it with nothing but the spec and its payload's
bitstream) and carries a canonical ``key`` string that doubles as

* the deterministic sort order of the sweep's results (so a parallel
  run is bit-identical to a serial one), and
* the human-readable identity printed by ``python -m repro sweep``.

The named grids at the bottom are the paper's experiments: the Fig. 5
bandwidth surface and the Table I compression corpus, plus a small
smoke grid for quick checks and tests.  Every command that prints a
Fig. 5 or Table I number runs one of them, or a
``dataclasses.replace`` of one, through
:class:`repro.sweep.engine.SweepEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compress.registry import PAPER_TABLE1_RATIOS
from repro.controllers import CONTROLLERS
from repro.errors import ReproError

#: Codecs a compress sweep may name (Table I rows).
COMPRESS_CODECS: Tuple[str, ...] = tuple(PAPER_TABLE1_RATIOS)

_WORKLOADS = ("reconfigure", "compress")


@dataclass(frozen=True, order=True)
class PayloadSpec:
    """One synthetic bitstream: its size and generator seed.

    The pair fully determines the payload bytes (the generator is
    seeded and otherwise default-parameterised), which is what lets a
    sweep generate each distinct payload once and share it between
    the cells that name it.
    """

    size_kb: float
    seed: int

    def __post_init__(self) -> None:
        if self.size_kb <= 0:
            raise ReproError(f"payload size must be positive, "
                             f"got {self.size_kb} KB")

    @property
    def label(self) -> str:
        return f"{self.size_kb:g}kb-s{self.seed}"


@dataclass(frozen=True)
class RunSpec:
    """One independent cell of a sweep.

    ``workload`` selects the experiment type:

    * ``"reconfigure"`` — run ``controller`` at ``frequency_mhz`` on
      the payload's bitstream; results carry bandwidth/duration/CRC.
    * ``"compress"`` — run ``codec`` on the payload's raw byte stream;
      results carry sizes and the Table I ratio.
    """

    workload: str
    payload: PayloadSpec
    controller: Optional[str] = None
    frequency_mhz: Optional[float] = None
    codec: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workload not in _WORKLOADS:
            raise ReproError(f"unknown workload {self.workload!r}; "
                             f"expected one of {_WORKLOADS}")
        if self.workload == "reconfigure":
            # Checked here so a typo fails at grid build time, not
            # inside a worker process.
            if self.controller not in CONTROLLERS:
                raise ReproError(
                    f"unknown controller {self.controller!r}; known: "
                    f"{', '.join(CONTROLLERS)}")
            if self.frequency_mhz is None or self.frequency_mhz <= 0:
                raise ReproError(
                    f"reconfigure spec needs a positive frequency, "
                    f"got {self.frequency_mhz!r}")
        else:
            if self.codec not in COMPRESS_CODECS:
                raise ReproError(f"unknown codec {self.codec!r}; known: "
                                 f"{', '.join(COMPRESS_CODECS)}")

    @property
    def key(self) -> str:
        """Canonical identity: the sort key and display name.

        Built only from values with exact string forms (``%g`` floats,
        ints), so equal specs always render the same key.
        """
        parts = [self.workload]
        if self.workload == "reconfigure":
            parts.append(str(self.controller))
            parts.append(f"{self.frequency_mhz:g}mhz")
        else:
            parts.append(str(self.codec))
        parts.append(self.payload.label)
        return "/".join(parts)


@dataclass(frozen=True)
class SweepGrid:
    """Axes of one sweep; ``expand()`` yields the cross product.

    ``payloads`` is an explicit tuple of (size, seed) pairs — *not*
    crossed with anything else — because corpora like Table I pair a
    specific seed with each size.
    """

    name: str
    workload: str
    payloads: Tuple[PayloadSpec, ...]
    controllers: Tuple[str, ...] = ()
    frequencies_mhz: Tuple[float, ...] = ()
    codecs: Tuple[str, ...] = ()
    description: str = ""

    def expand(self) -> List[RunSpec]:
        """All run specs of the grid, sorted by canonical key."""
        specs: List[RunSpec] = []
        if self.workload == "reconfigure":
            if not (self.controllers and self.frequencies_mhz):
                raise ReproError(
                    f"grid {self.name!r}: a reconfigure grid needs "
                    f"controllers and frequencies")
            for controller in self.controllers:
                for mhz in self.frequencies_mhz:
                    for payload in self.payloads:
                        specs.append(RunSpec(
                            workload="reconfigure",
                            controller=controller,
                            frequency_mhz=mhz,
                            payload=payload))
        elif self.workload == "compress":
            if not self.codecs:
                raise ReproError(f"grid {self.name!r}: a compress grid "
                                 f"needs codecs")
            for codec in self.codecs:
                for payload in self.payloads:
                    specs.append(RunSpec(workload="compress",
                                         codec=codec, payload=payload))
        else:
            raise ReproError(f"grid {self.name!r}: unknown workload "
                             f"{self.workload!r}")
        specs.sort(key=lambda spec: spec.key)
        return specs

    def __len__(self) -> int:
        if self.workload == "reconfigure":
            return (len(self.controllers) * len(self.frequencies_mhz)
                    * len(self.payloads))
        return len(self.codecs) * len(self.payloads)


#: The axes Fig. 5 plots (sizes in KB, frequencies in MHz).
FIG5_SIZES_KB = (6.5, 12.0, 30.0, 49.0, 81.0, 156.0, 247.0)
FIG5_FREQUENCIES_MHZ = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 362.5)

#: Fig. 5: UPaRC_i (preloading without compression) over the full
#: size x frequency surface, every payload at the library's default
#: seed (2012).  Small bitstreams amortise the constant manager and
#: control overhead poorly (78.8 % of theoretical at 6.5 KB and
#: 362.5 MHz in the paper), large ones approach the theoretical plane
#: (99 % at 247 KB).
FIG5_GRID = SweepGrid(
    name="fig5",
    workload="reconfigure",
    controllers=("UPaRC_i",),
    frequencies_mhz=FIG5_FREQUENCIES_MHZ,
    payloads=tuple(PayloadSpec(size_kb=kb, seed=2012)
                   for kb in FIG5_SIZES_KB),
    description="Fig. 5 bandwidth surface (7 sizes x 7 frequencies)",
)

#: Table I: every codec over the paired (size, seed) corpus.  The
#: pairs are the corpus the compression table is calibrated against.
TABLE1_PAYLOADS = (PayloadSpec(size_kb=49.0, seed=101),
                   PayloadSpec(size_kb=81.0, seed=202),
                   PayloadSpec(size_kb=156.0, seed=303))

TABLE1_GRID = SweepGrid(
    name="table1",
    workload="compress",
    codecs=COMPRESS_CODECS,
    payloads=TABLE1_PAYLOADS,
    description="Table I compression ratios (7 codecs x 3 bitstreams)",
)

#: Tiny grid for smoke tests and CLI sanity checks (4 cells, < 1 s).
SMOKE_GRID = SweepGrid(
    name="smoke",
    workload="reconfigure",
    controllers=("UPaRC_i",),
    frequencies_mhz=(100.0, 362.5),
    payloads=(PayloadSpec(size_kb=6.5, seed=2012),
              PayloadSpec(size_kb=12.0, seed=7)),
    description="4-cell smoke sweep (fast sanity check)",
)

GRIDS: Dict[str, SweepGrid] = {
    grid.name: grid for grid in (FIG5_GRID, TABLE1_GRID, SMOKE_GRID)
}
