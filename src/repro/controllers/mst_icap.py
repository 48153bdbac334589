"""MST_ICAP — DMA master from DDR2 SDRAM (Liu et al., FPL 2009).

The capacity-oriented sibling of BRAM_HWICAP: bitstreams live in DDR2
(grade +++), but every burst pays SDRAM activation/CAS/turnaround, so
the effective rate is about half the 120 MHz bus theoretical —
235 MB/s in Table III (24-word bursts with 25 overhead cycles give
exactly 49 % efficiency here).

As with BRAM_HWICAP, the default device is the comparison's Virtex-5
(the original was measured on Virtex-4).
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
from repro.errors import CapacityError, ControllerError
from repro.fpga.memory import Ddr2Sdram
from repro.power.model import ManagerState, PowerModel
from repro.units import Frequency


class MstIcap(ReconfigurationController):
    """Bus-master ICAP controller reading from DDR2."""

    name = "MST_ICAP"
    large_bitstream = LargeBitstreamGrade.UNLIMITED

    def __init__(self, device: DeviceInfo = VIRTEX5_SX50T,
                 ddr2: Optional[Ddr2Sdram] = None,
                 power_model: Optional[PowerModel] = None) -> None:
        self.device = device
        self.ddr2 = ddr2 if ddr2 is not None else Ddr2Sdram(
            burst_words=24, burst_setup_cycles=25)
        self._power_model = power_model

    @property
    def max_frequency(self) -> Frequency:
        return Frequency.from_mhz(120)

    def reconfigure(self, bitstream: PartialBitstream,
                    frequency: Optional[Frequency] = None,
                    ) -> ReconfigurationResult:
        clock = frequency if frequency is not None else self.max_frequency
        if clock > self.max_frequency:
            raise ControllerError(
                f"MST_ICAP limited to {self.max_frequency}, got {clock}"
            )
        if bitstream.size.bytes > self.ddr2.capacity.bytes:
            raise CapacityError(
                f"{bitstream.size} exceeds DDR2 capacity "
                f"{self.ddr2.capacity}"
            )
        data = bitstream.raw_bytes
        cycles = self.ddr2.read_cycles(len(data) // 4)
        plan = TransferPlan(
            controller=self.name,
            mode="ddr2",
            stored_size=bitstream.size,
            output_bytes=data,
            transfer_ps=clock.duration_of(cycles),
            manager_state=ManagerState.WAIT,
            chain_active=True,
        )
        return execute_plan(plan, self.device, clock, bitstream,
                            power_model=self._power_model)
