"""FlashCAP — streaming X-MatchPRO decompression (Nabina &
Nunez-Yanez, FPL 2010).

Bitstreams are stored X-MatchPRO-compressed (grade ++ capacity) and
decompressed in line on the way to ICAP.  The decompressor's 32-bit
datapath at the 120 MHz system clock paces the output at ~0.75 words
per cycle — the 358 MB/s of Table III.  The paper's UPaRC_ii uses the
same algorithm with a 64-bit datapath, which is exactly where its
1008 vs 358 MB/s advantage comes from (the comparison the paper
highlights because "the same compression method" makes it apples to
apples).
"""

from __future__ import annotations

from typing import Optional

from repro.bitstream.device import DeviceInfo, VIRTEX5_SX50T
from repro.bitstream.generator import PartialBitstream
from repro.compress.xmatchpro import XMatchProCodec
from repro.controllers._harness import TransferPlan, execute_plan
from repro.controllers.base import (
    LargeBitstreamGrade,
    ReconfigurationController,
    ReconfigurationResult,
)
from repro.errors import ControllerError
from repro.power.model import ManagerState, PowerModel
from repro.units import DataSize, Frequency

# 32-bit X-MatchPRO datapath: output rate in words per system cycle,
# calibrated to Table III (0.746 x 120 MHz x 4 B = 358 MB/s).
FLASHCAP_WORDS_PER_CYCLE = 0.746


class FlashCap(ReconfigurationController):
    """Flash-stored, X-MatchPRO-streamed reconfiguration."""

    name = "FlashCAP_i"
    large_bitstream = LargeBitstreamGrade.COMPRESSED

    def __init__(self, device: DeviceInfo = VIRTEX5_SX50T,
                 power_model: Optional[PowerModel] = None) -> None:
        self.device = device
        self._codec = XMatchProCodec()
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
                f"FlashCAP limited to {self.max_frequency}, got {clock}"
            )
        data = bitstream.raw_bytes
        compressed = self._codec.compress(data)
        if self._codec.decompress(compressed) != data:
            raise ControllerError("FlashCAP X-MatchPRO round-trip failed")
        cycles = round((len(data) // 4) / FLASHCAP_WORDS_PER_CYCLE)
        plan = TransferPlan(
            controller=self.name,
            mode="flash+xmatchpro",
            stored_size=DataSize(len(compressed)),
            output_bytes=data,
            transfer_ps=clock.duration_of(cycles),
            manager_state=ManagerState.WAIT,
            chain_active=True,
        )
        return execute_plan(plan, self.device, clock, bitstream,
                            power_model=self._power_model)
