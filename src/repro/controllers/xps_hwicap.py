"""xps_hwicap — Xilinx's processor-driven reconfiguration controller.

The reference baseline (Table III row 1).  Every configuration word
goes through the MicroBlaze: load from storage, store to the HWICAP
write FIFO, poll status.  Three measured profiles appear in the paper
and all three are modelled:

* ``compactflash`` — bitstreams on CF via SystemACE: ~180 KB/s end to
  end ("the throughput recorded of this controller is about
  180 KB/s").  Unlimited capacity (grade +++).
* ``cached`` — Liu et al.'s measurement with the bitstream in the
  processor cache: 14.5 MB/s, the Table III number.  (Their platform
  was a Virtex-4 PowerPC; the cycle cost is the same processor-bound
  loop either way, which is the paper's point about processor-driven
  controllers.)
* ``unoptimized`` — the paper's own Section V energy setup ("without
  processor optimizations, we achieve a reconfiguration throughput of
  1.5 MB/s"), the 30 uJ/KB reference point.
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
from repro.errors import ControllerError
from repro.fpga.memory import CompactFlash
from repro.power.model import ManagerState, PowerModel
from repro.units import Frequency

# Software copy-loop costs (cycles per 32-bit word at the processor
# clock), calibrated against the three published throughputs.
PROFILE_COPY_CYCLES = {
    "cached": 26,         # -> 14.7 MB/s at 100 MHz (paper: 14.5)
    "unoptimized": 254,   # -> 1.5 MB/s at 100 MHz (paper: 1.5)
    "compactflash": 610,  # driver overhead on top of the CF read
}


class XpsHwicap(ReconfigurationController):
    """Processor-driven HWICAP with selectable storage profile."""

    name = "xps_hwicap"
    large_bitstream = LargeBitstreamGrade.UNLIMITED

    def __init__(self, profile: str = "cached",
                 device: DeviceInfo = VIRTEX5_SX50T,
                 processor_frequency: Frequency = Frequency.from_mhz(100),
                 power_model: Optional[PowerModel] = None,
                 compact_flash: Optional[CompactFlash] = None) -> None:
        if profile not in PROFILE_COPY_CYCLES:
            raise ControllerError(
                f"unknown xps_hwicap profile {profile!r}; choose from "
                f"{sorted(PROFILE_COPY_CYCLES)}"
            )
        self.profile = profile
        self.device = device
        self.processor_frequency = processor_frequency
        self._power_model = power_model
        self._compact_flash = compact_flash if compact_flash is not None \
            else CompactFlash()

    @property
    def max_frequency(self) -> Frequency:
        """Bus/HWICAP core limit from the datasheet era."""
        return Frequency.from_mhz(120)

    @property
    def reference_frequency(self) -> Frequency:
        """Table III's 14.5 MB/s was measured at a 100 MHz processor."""
        return self.processor_frequency

    def reconfigure(self, bitstream: PartialBitstream,
                    frequency: Optional[Frequency] = None,
                    ) -> ReconfigurationResult:
        clock = frequency if frequency is not None \
            else self.processor_frequency
        if clock > self.max_frequency:
            raise ControllerError(
                f"xps_hwicap limited to {self.max_frequency}, got {clock}"
            )
        data = bitstream.raw_bytes
        copy_cycles = PROFILE_COPY_CYCLES[self.profile] * (len(data) // 4)
        transfer_ps = clock.duration_of(copy_cycles)
        if self.profile == "compactflash":
            transfer_ps += self._compact_flash.read_duration_ps(
                bitstream.size)
        plan = TransferPlan(
            controller=f"xps_hwicap[{self.profile}]",
            mode=self.profile,
            stored_size=bitstream.size,
            output_bytes=data,
            transfer_ps=transfer_ps,
            manager_state=ManagerState.COPY,
            chain_active=False,  # the ICAP trickle is negligible power
        )
        return execute_plan(plan, self.device, clock, bitstream,
                            power_model=self._power_model)
