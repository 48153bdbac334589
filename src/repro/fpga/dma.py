"""DMA engines: Xilinx central DMA vs. UReC's custom burst reader.

Section III-B's key design argument: the literature's fast controllers
(BRAM_HWICAP, MST_ICAP, FaRM) all reuse the Xilinx central DMA, which
is large, arbitration-heavy and tops out at 200 MHz; UReC replaces it
with a minimal read-only BRAM streamer that issues one word per cycle
with almost no setup and closes timing far higher.  The two classes
here model exactly that difference;
``tests/fpga/test_memory_dma.py`` quantifies it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FrequencyError, HardwareModelError
from repro.units import Frequency, ceil_div


@dataclass(frozen=True)
class XilinxCentralDma:
    """Bus-attached central DMA (the baselines' transfer engine).

    Every ``burst_words`` transfer pays ``burst_setup_cycles`` of bus
    arbitration and descriptor handling.  With the defaults (16-word
    bursts, 5 setup cycles) efficiency is 16/21 = 76.2 %, which at
    120 MHz gives the ~366-371 MB/s of BRAM_HWICAP in Table III.
    """

    max_frequency: Frequency = Frequency.from_mhz(200)
    burst_words: int = 16
    burst_setup_cycles: int = 5

    def __post_init__(self) -> None:
        if self.burst_words <= 0 or self.burst_setup_cycles < 0:
            raise HardwareModelError("invalid DMA burst parameters")

    def check_frequency(self, frequency: Frequency) -> None:
        if frequency > self.max_frequency:
            raise FrequencyError(
                f"Xilinx central DMA cannot close timing at {frequency} "
                f"(limit {self.max_frequency})"
            )

    def transfer_cycles(self, words: int) -> int:
        if words < 0:
            raise HardwareModelError("negative word count")
        bursts = ceil_div(words, self.burst_words)
        return words + bursts * self.burst_setup_cycles

    def efficiency(self) -> float:
        cycle_cost = self.burst_words + self.burst_setup_cycles
        return self.burst_words / cycle_cost


@dataclass(frozen=True)
class CustomBurstReader:
    """UReC's redesigned BRAM interface.

    Read-only, no bus, no descriptors: a two-cycle address setup then
    one word per clock for the whole transfer ("configuration data can
    be transferred at each clock cycle in burst mode").  The tiny logic
    footprint is what lets it close timing at 362.5 MHz.
    """

    max_frequency: Frequency = Frequency.from_mhz(362.5)
    setup_cycles: int = 2

    def check_frequency(self, frequency: Frequency) -> None:
        if frequency > self.max_frequency:
            raise FrequencyError(
                f"custom burst reader demonstrated up to "
                f"{self.max_frequency}; {frequency} requested"
            )

    def transfer_cycles(self, words: int) -> int:
        if words < 0:
            raise HardwareModelError("negative word count")
        if words == 0:
            return 0
        return words + self.setup_cycles

    def efficiency(self) -> float:
        return 1.0
