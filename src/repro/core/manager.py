"""Manager — preloading, reconfiguration control, frequency adaptation.

Section III-A.  The Manager (a MicroBlaze here, as in the paper) does
three things, each modelled as a simulation process stage with cycle
costs from :class:`~repro.fpga.microblaze.MicroBlaze`:

* **Bitstream preloading** — parse the BIT preamble, then copy the
  size+mode header word followed by the configuration stream (raw or
  compressed, as big-endian bytes) into BRAM through port A.  This
  happens *before* the reconfiguration and can be hidden in idle time
  (see `repro.core.scheduler`).
* **Reconfiguration control** — a short control burst to assert
  "Start", an *active wait* on "Finish" (the paper's explanation for
  frequency-dependent energy), and a control tail.
* **Frequency adaptation** — retune DyCloGen outputs through the DRP
  and absorb the relock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.bitstream.generator import PartialBitstream
from repro.bitstream.parser import BitstreamParser
from repro.core.dyclogen import CLK_2, CLK_3, DyCloGen
from repro.core.urec import OperationMode, pack_header
from repro.errors import CapacityError
from repro.fpga.bram import Bram
from repro.fpga.decompressor import HardwareDecompressor
from repro.fpga.microblaze import MicroBlaze
from repro.obs.tracing import TraceScope
from repro.power.model import ManagerState
from repro.power.trace import MANAGER_TRACK, PowerTraceBuilder
from repro.sim import Delay, Event, Simulator, WaitEvent
from repro.units import DataSize, Frequency


@dataclass
class PreloadReport:
    """What the preload stage stored and how long it took."""

    mode: OperationMode
    original_size: DataSize     # raw configuration stream
    stored_size: DataSize       # BRAM payload (compressed if mode ii)
    duration_ps: int
    compression_ratio_percent: Optional[float] = None


class Manager:
    """Drives UPaRC; owns the power-state bookkeeping."""

    def __init__(self, sim: Simulator, cpu: MicroBlaze, bram: Bram,
                 dyclogen: DyCloGen,
                 decompressor: Optional[HardwareDecompressor] = None,
                 power: Optional[PowerTraceBuilder] = None,
                 scope: Optional[TraceScope] = None) -> None:
        self._sim = sim
        self._cpu = cpu
        self._bram = bram
        self._dyclogen = dyclogen
        self._decompressor = decompressor
        self._power = power
        self._scope = scope if scope is not None else TraceScope(sim)
        self._track = self._scope.track(MANAGER_TRACK, cat="controller")
        self.last_preload: Optional[PreloadReport] = None

    # -- power-state helper ---------------------------------------------

    def _state(self, state: str) -> None:
        """Announce a state-machine transition on the manager track.

        Power sampling rides on the scope: a subscribed
        :class:`PowerTraceBuilder` receives the transition via
        ``on_phase``.  The legacy ``power=`` constructor wiring (a
        builder called directly, no scope) is still honoured.
        """
        if self._power is not None:
            self._power.manager_state(state)
        if state == ManagerState.IDLE:
            self._track.exit()
        else:
            self._track.enter(state)

    # -- preloading -------------------------------------------------------

    def choose_mode(self, bitstream: PartialBitstream) -> OperationMode:
        """Section III-C policy: compress iff the raw stream won't fit."""
        if self._bram.fits(bitstream.size):
            return OperationMode.RAW
        if self._decompressor is None:
            raise CapacityError(
                f"bitstream of {bitstream.size} exceeds BRAM "
                f"{self._bram.capacity} and no decompressor is configured"
            )
        return OperationMode.COMPRESSED

    def preload_process(self, bitstream: PartialBitstream,
                        mode: Optional[OperationMode] = None,
                        ) -> Generator:
        """Parse + copy the bitstream into BRAM (port A)."""
        begin = self._sim.now
        self._state(ManagerState.COPY)
        try:
            yield Delay(self._cpu.parse_duration_ps())
            parsed = BitstreamParser(decode_packets=False).parse(
                bitstream.file_bytes)
            chosen = mode if mode is not None else self.choose_mode(bitstream)
            ratio: Optional[float] = None
            if chosen is OperationMode.COMPRESSED:
                if self._decompressor is None:
                    raise CapacityError("compressed preload without "
                                        "decompressor")
                stored = self._decompressor.compress_offline(
                    bitstream.raw_bytes)
                if len(stored) % 4:
                    stored += b"\x00" * (4 - len(stored) % 4)
                ratio = (1 - len(stored) / bitstream.size.bytes) * 100
            else:
                stored = parsed.raw
            stored_words = len(stored) // 4
            if stored_words + 1 > self._bram.capacity.words:
                raise CapacityError(
                    f"stored payload of {stored_words} words (+header) "
                    f"exceeds BRAM capacity {self._bram.capacity.words} words"
                )
            header = pack_header(chosen, stored_words)
            self._bram.preload(header.to_bytes(4, "big") + stored)
            yield Delay(self._cpu.preload_duration_ps(stored_words + 1))
        finally:
            self._state(ManagerState.IDLE)
        report = PreloadReport(
            mode=chosen,
            original_size=bitstream.size,
            stored_size=DataSize.from_words(stored_words),
            duration_ps=self._sim.now - begin,
            compression_ratio_percent=ratio,
        )
        self.last_preload = report
        return report

    # -- reconfiguration control ------------------------------------------

    def control_process(self, start: Event, finish: Event) -> Generator:
        """Start pulse, active wait, finish detection.

        Returns (start_time_ps, finish_time_ps, control_overhead_ps).
        """
        overhead = self._cpu.control_duration_ps()
        lead = overhead // 2
        tail = overhead - lead
        self._state(ManagerState.CONTROL)
        self._cpu.busy.begin()
        yield Delay(lead)
        self._cpu.busy.end()
        start_time = self._sim.now
        self._state(ManagerState.WAIT)
        self._cpu.waiting.begin()
        start.trigger()
        yield WaitEvent(finish)
        finish_time = self._sim.now
        self._cpu.waiting.end()
        self._state(ManagerState.CONTROL)
        self._cpu.busy.begin()
        yield Delay(tail)
        self._cpu.busy.end()
        self._state(ManagerState.IDLE)
        return start_time, finish_time, overhead

    # -- frequency adaptation ----------------------------------------------

    def adapt_frequency_process(self, target: Frequency) -> Generator:
        """Retune CLK_2 and wait for the DCM to relock."""
        self._state(ManagerState.CONTROL)
        self._cpu.busy.begin()
        try:
            lock_ps = self._dyclogen.retune(CLK_2, target)
            yield Delay(lock_ps)
        finally:
            self._cpu.busy.end()
            self._state(ManagerState.IDLE)
        return self._dyclogen.clk2.frequency

    def adapt_decompressor_clock_process(self, target: Frequency,
                                         ) -> Generator:
        """Retune CLK_3 (after a decompressor swap)."""
        self._state(ManagerState.CONTROL)
        self._cpu.busy.begin()
        try:
            lock_ps = self._dyclogen.retune(CLK_3, target)
            yield Delay(lock_ps)
        finally:
            self._cpu.busy.end()
            self._state(ManagerState.IDLE)
        return self._dyclogen.clk3.frequency
