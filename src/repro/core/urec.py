"""UReC — the ultra-fast reconfiguration controller FSM.

Figure 4 of the paper, as a simulation process:

1. Wait for "Start".
2. Enable BRAM port B and ICAP (EN assertion).
3. Read the first 32-bit word: operation mode (bit 31) and payload
   size in words (bits 30..0) — the Fig. 3 header the Manager wrote.
4. Without compression: burst the payload from BRAM straight into
   ICAP, one word per CLK_2 cycle, uninterrupted.
   With compression: stream the payload through the decompressor
   (CLK_3) into ICAP (CLK_2); the slower of the two sides paces the
   transfer.
5. Assert "Finish"; deassert EN on BRAM and ICAP to save power.

The transfer is *functional*: the exact words land in the ICAP model
and are CRC-verified against the source bitstream by the caller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import ReconfigurationFailed
from repro.fpga.bram import Bram
from repro.fpga.decompressor import HardwareDecompressor
from repro.fpga.dma import CustomBurstReader
from repro.fpga.icap import Icap
from repro.obs.tracing import TraceScope
from repro.sim import Clock, Delay, Event, Simulator, WaitCycles

HEADER_MODE_BIT = 31
HEADER_SIZE_MASK = (1 << 31) - 1


class OperationMode(enum.IntEnum):
    """Fig. 3 header modes."""

    RAW = 0
    COMPRESSED = 1


def pack_header(mode: OperationMode, payload_words: int) -> int:
    """Encode the first BRAM word (size + operation mode)."""
    if not 0 <= payload_words <= HEADER_SIZE_MASK:
        raise ReconfigurationFailed(
            f"payload of {payload_words} words does not fit the header"
        )
    return (int(mode) << HEADER_MODE_BIT) | payload_words


def unpack_header(word: int) -> tuple:
    return OperationMode((word >> HEADER_MODE_BIT) & 1), \
        word & HEADER_SIZE_MASK


@dataclass
class TransferStats:
    """What one UReC run moved and how long the burst took."""

    mode: OperationMode
    stored_words: int      # words read from BRAM (after the header)
    output_words: int      # words delivered to ICAP
    burst_ps: int          # pure transfer time (excl. handshake)


class UReC:
    """The redesigned, minimal burst controller."""

    def __init__(self, sim: Simulator, bram: Bram, icap: Icap,
                 clock: Clock,
                 reader: Optional[CustomBurstReader] = None,
                 decompressor: Optional[HardwareDecompressor] = None,
                 scope: Optional[TraceScope] = None) -> None:
        self._sim = sim
        self._bram = bram
        self._icap = icap
        self.clock = clock
        self._reader = reader if reader is not None else CustomBurstReader()
        self._decompressor = decompressor
        self._scope = scope if scope is not None else TraceScope(sim)
        self.runs = 0
        self.last_stats: Optional[TransferStats] = None

    @property
    def decompressor(self) -> Optional[HardwareDecompressor]:
        return self._decompressor

    def process(self, start: Event, finish: Event) -> Generator:
        """The FSM as a simulation process (one reconfiguration)."""
        yield from self._wait_start(start)
        self._reader.check_frequency(self.clock.frequency)
        self._bram.enable_read_port(self.clock)
        self._icap.enable()
        self._icap.reset_payload()
        try:
            with self._scope.span("urec.run", cat="urec"):
                with self._scope.span("urec.header", cat="urec"):
                    # Header read: one CLK_2 cycle.
                    yield WaitCycles(self.clock, 1)
                    mode, stored_words = unpack_header(
                        self._bram.read_word(0))
                if mode is OperationMode.RAW:
                    stats = yield from self._raw_transfer(stored_words)
                else:
                    stats = yield from self._compressed_transfer(
                        stored_words)
        finally:
            self._icap.disable()
            self._bram.disable_read_port()
        self.runs += 1
        self.last_stats = stats
        finish.trigger(stats)

    def _wait_start(self, start: Event) -> Generator:
        from repro.sim import WaitEvent  # local import avoids cycle noise
        yield WaitEvent(start)

    def _raw_transfer(self, stored_words: int) -> Generator:
        """Mode i: BRAM -> ICAP burst, one word per cycle."""
        data = self._bram.read_burst(1, stored_words)
        cycles = self._reader.transfer_cycles(stored_words)
        begin = self._sim.now
        with self._scope.span("urec.raw_burst", cat="urec",
                              words=stored_words):
            # ICAP absorbs the words; the custom reader's setup cycles
            # are the only overhead beyond one word per cycle.
            self._icap.absorb(data)
            yield WaitCycles(self.clock, cycles)
        return TransferStats(
            mode=OperationMode.RAW,
            stored_words=stored_words,
            output_words=stored_words,
            burst_ps=self._sim.now - begin,
        )

    def _compressed_transfer(self, stored_words: int) -> Generator:
        """Mode ii: BRAM -> decompressor (CLK_3) -> ICAP (CLK_2)."""
        if self._decompressor is None:
            raise ReconfigurationFailed(
                "compressed-mode header but no decompressor configured"
            )
        self._decompressor.check_frequency()
        original = self._decompressor.expand(
            self._bram.read_burst(1, stored_words))
        if len(original) % 4:
            # Configuration streams are word aligned by construction.
            raise ReconfigurationFailed(
                "decompressed stream is not word aligned"
            )
        output_words = len(original) // 4

        begin = self._sim.now
        self._decompressor.activity.begin()
        try:
            with self._scope.span("decompressor.stream",
                                  cat="decompressor",
                                  words_in=stored_words,
                                  words_out=output_words):
                decomp_ps = self._decompressor.clock.cycles_duration(
                    self._decompressor.stream_cycles(output_words))
                icap_ps = self._icap.absorb(original)
                # The pipeline is paced by its slower side.
                yield Delay(max(decomp_ps, icap_ps))
        finally:
            self._decompressor.activity.end()
        return TransferStats(
            mode=OperationMode.COMPRESSED,
            stored_words=stored_words,
            output_words=output_words,
            burst_ps=self._sim.now - begin,
        )
