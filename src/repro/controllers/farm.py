"""FaRM — Fast Reconfiguration Manager (Duhem et al., ARC 2011).

The fastest controller in the pre-UPaRC literature: BRAM staging, a
streamlined burst engine that sustains one word per cycle, and
run-length bitstream compression that stretches the staging BRAM
(grade ++).  Its hard ceiling is the 200 MHz system clock — 800 MB/s,
which the paper beats 1.8x.

Two FaRM modes are modelled, matching the original design:

* ``direct``   — raw bitstream in BRAM, straight burst;
* ``compressed`` — RLE-compressed staging, decompressed in line at one
  output word per cycle (RLE decode is trivially single-cycle), so the
  throughput is the same but capacity grows by the (bitstream-
  dependent!) RLE ratio — the variability the paper criticizes.
"""

from __future__ import annotations

from typing import Optional

from repro.bitstream.device import DeviceInfo, VIRTEX5_SX50T
from repro.bitstream.generator import PartialBitstream
from repro.compress.rle import RleCodec
from repro.controllers._harness import TransferPlan, execute_plan
from repro.controllers.base import (
    LargeBitstreamGrade,
    ReconfigurationController,
    ReconfigurationResult,
)
from repro.errors import CapacityError, ControllerError
from repro.power.model import ManagerState, PowerModel
from repro.units import DataSize, Frequency

FARM_SETUP_CYCLES = 4


class Farm(ReconfigurationController):
    """FaRM with optional RLE-compressed staging."""

    name = "FaRM"
    large_bitstream = LargeBitstreamGrade.COMPRESSED

    def __init__(self, device: DeviceInfo = VIRTEX5_SX50T,
                 bram_capacity: DataSize = DataSize.from_kb(256),
                 mode: str = "compressed",
                 power_model: Optional[PowerModel] = None) -> None:
        if mode not in ("direct", "compressed"):
            raise ControllerError(
                f"FaRM mode must be 'direct' or 'compressed', got {mode!r}"
            )
        self.device = device
        self.bram_capacity = bram_capacity
        self.mode = mode
        self._codec = RleCodec()
        self._power_model = power_model

    @property
    def max_frequency(self) -> Frequency:
        return Frequency.from_mhz(200)

    def reconfigure(self, bitstream: PartialBitstream,
                    frequency: Optional[Frequency] = None,
                    ) -> ReconfigurationResult:
        clock = frequency if frequency is not None else self.max_frequency
        if clock > self.max_frequency:
            raise ControllerError(
                f"FaRM limited to {self.max_frequency}, got {clock}"
            )
        data = bitstream.raw_bytes
        if self.mode == "compressed":
            compressed = self._codec.compress(data)
            stored = DataSize(len(compressed))
            # Functional check: the staged stream must round-trip.
            if self._codec.decompress(compressed) != data:
                raise ControllerError("FaRM RLE round-trip failed")
        else:
            stored = bitstream.size
        if stored.bytes > self.bram_capacity.bytes:
            raise CapacityError(
                f"FaRM staging of {stored} exceeds {self.bram_capacity} "
                f"BRAM (mode {self.mode!r})"
            )
        # Output side paces either mode: one word per cycle.
        cycles = len(data) // 4 + FARM_SETUP_CYCLES
        plan = TransferPlan(
            controller=self.name,
            mode=self.mode,
            stored_size=stored,
            output_bytes=data,
            transfer_ps=clock.duration_of(cycles),
            manager_state=ManagerState.WAIT,
            chain_active=True,
        )
        return execute_plan(plan, self.device, clock, bitstream,
                            power_model=self._power_model)

    def effective_capacity(self, sample: PartialBitstream) -> DataSize:
        """How much raw bitstream fits after RLE, for this content."""
        compressed = self._codec.compress(sample.raw_bytes)
        ratio = len(sample.raw_bytes) / len(compressed)
        return DataSize(round(self.bram_capacity.bytes * ratio))
