"""BRAM_HWICAP — DMA from on-chip BRAM (Liu et al., FPL 2009).

The fastest of the FPL'09 designs: bitstreams staged in BRAM, moved by
the Xilinx central DMA.  Its two structural limits are exactly the
ones Table III grades it on:

* **frequency** — the DMA and the shared system clock cap it at
  120 MHz (the whole system runs on one clock, unlike UPaRC's
  DyCloGen-decoupled CLK_2);
* **capacity** — raw bitstreams only, bounded by BRAM (grade "-").

With the central DMA's burst arbitration (24-word bursts, 7 setup
cycles -> 77.4 % efficiency) it reaches ~371 MB/s at 120 MHz, the
Table III figure.

Liu et al. measured on Virtex-4; the model defaults to the Virtex-5
of the UPaRC comparison so every Table III contender consumes the
same bitstream (burst/frequency parameters are the published ones and
do not depend on the family).
"""

from __future__ import annotations

from typing import Optional

from repro.bitstream.device import DeviceInfo, VIRTEX5_SX50T
from repro.bitstream.generator import PartialBitstream
from repro.controllers._harness import TransferPlan, execute_plan
from repro.controllers.base import (
    LargeBitstreamGrade,
    ReconfigurationController,
    ReconfigurationResult,
)
from repro.errors import CapacityError
from repro.fpga.dma import XilinxCentralDma
from repro.power.model import ManagerState, PowerModel
from repro.units import DataSize, Frequency


class BramHwicap(ReconfigurationController):
    """Central-DMA transfer from a BRAM staging buffer."""

    name = "BRAM_HWICAP"
    large_bitstream = LargeBitstreamGrade.LIMITED

    def __init__(self, device: DeviceInfo = VIRTEX5_SX50T,
                 bram_capacity: DataSize = DataSize.from_kb(256),
                 dma: Optional[XilinxCentralDma] = None,
                 power_model: Optional[PowerModel] = None) -> None:
        self.device = device
        self.bram_capacity = bram_capacity
        self.dma = dma if dma is not None else XilinxCentralDma(
            max_frequency=Frequency.from_mhz(120),
            burst_words=24,
            burst_setup_cycles=7,
        )
        self._power_model = power_model

    @property
    def max_frequency(self) -> Frequency:
        return self.dma.max_frequency

    def reconfigure(self, bitstream: PartialBitstream,
                    frequency: Optional[Frequency] = None,
                    ) -> ReconfigurationResult:
        clock = frequency if frequency is not None else self.max_frequency
        self.dma.check_frequency(clock)
        if bitstream.size.bytes > self.bram_capacity.bytes:
            raise CapacityError(
                f"BRAM_HWICAP stores raw bitstreams only; {bitstream.size} "
                f"exceeds its {self.bram_capacity} of BRAM"
            )
        data = bitstream.raw_bytes
        cycles = self.dma.transfer_cycles(len(data) // 4)
        plan = TransferPlan(
            controller=self.name,
            mode="bram",
            stored_size=bitstream.size,
            output_bytes=data,
            transfer_ps=clock.duration_of(cycles),
            manager_state=ManagerState.WAIT,
            chain_active=True,
        )
        return execute_plan(plan, self.device, clock, bitstream,
                            power_model=self._power_model)
