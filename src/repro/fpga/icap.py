"""ICAP — Internal Configuration Access Port model.

The hardwired 32-bit configuration port.  The paper's central
observation is that ICAP itself is not the bottleneck: it absorbs one
word per clock, so reconfiguration bandwidth is
``4 bytes x F_icap`` minus whatever the controller wastes.  The model
therefore exposes a *burst absorption* primitive (``accept_burst``)
that accounts exact cycle timing at the current clock, validates the
frequency envelope, and records activity for the power model.

Frequency policy: the datasheet caps ICAP at 100 MHz; the paper drives
it far beyond (362.5 MHz demonstrated on Virtex-5).  The model allows
overclocking up to the device's *demonstrated* limit and raises
:class:`~repro.errors.FrequencyError` beyond it, mirroring the V6
reliability boundary the paper reports.
"""

from __future__ import annotations

import zlib
from fractions import Fraction
from typing import Optional

from repro.bitstream.device import DeviceInfo
from repro.bitstream.format import words_to_bytes
from repro.errors import FrequencyError, HardwareModelError
from repro.sim import ActivityTrace, Clock, Simulator
from repro.units import WORD_BYTES, DataSize


class Icap:
    """Cycle-level ICAP transaction model."""

    def __init__(self, sim: Simulator, device: DeviceInfo,
                 clock: Clock, allow_overclock: bool = True,
                 config_logic=None) -> None:
        self._sim = sim
        self.device = device
        self.clock = clock
        self._allow_overclock = allow_overclock
        self.activity = ActivityTrace(sim, "icap")
        self.words_accepted = 0
        self.sessions = 0
        self._enabled = False
        self._crc = 0
        #: Optional :class:`~repro.fpga.config_memory.ConfigurationLogic`
        #: behind the port; when attached, absorbed words are actually
        #: interpreted and configure frames.
        self.config_logic = config_logic

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def word_bytes(self) -> int:
        return self.device.icap_width_bits // 8

    def check_frequency(self) -> None:
        """Validate the current clock against the device envelope."""
        limit = (self.device.icap_fmax_demonstrated if self._allow_overclock
                 else self.device.icap_fmax_nominal)
        if self.clock.frequency > limit:
            raise FrequencyError(
                f"ICAP on {self.device.name} cannot run at "
                f"{self.clock.frequency} (limit {limit}"
                f"{', overclock allowed' if self._allow_overclock else ''})"
            )

    def enable(self) -> None:
        """Assert the EN input (the controller gates it to save power)."""
        if self._enabled:
            raise HardwareModelError("ICAP already enabled")
        self.check_frequency()
        self._enabled = True
        self.sessions += 1
        self.activity.begin()

    def disable(self) -> None:
        if not self._enabled:
            raise HardwareModelError("ICAP not enabled")
        self._enabled = False
        self.activity.end()

    def burst_cycles(self, words: int, words_per_cycle: float = 1.0) -> int:
        """Cycles to absorb ``words`` at the given issue rate.

        ``words_per_cycle`` < 1 models controllers that cannot feed the
        port every cycle (bus-based designs); UReC feeds 1.0.
        """
        if words < 0:
            raise HardwareModelError("negative word count")
        if not 0 < words_per_cycle <= 2:
            raise HardwareModelError(
                f"invalid issue rate {words_per_cycle} words/cycle"
            )
        if words_per_cycle >= 1:
            # Exact ceiling division: Fraction(float) is the float's
            # exact binary value, so no float floor-division rounding
            # can leak into the cycle count (the annotation says int,
            # and float `//` returns float).
            rate = Fraction(words_per_cycle)
            return -(-words * rate.denominator // rate.numerator)
        return round(words / words_per_cycle)

    def accept_burst(self, words: int, words_per_cycle: float = 1.0) -> int:
        """Account a burst; returns its duration in picoseconds.

        The caller (a controller process) yields a wait of the returned
        duration; the model records word count and activity.
        """
        if not self._enabled:
            raise HardwareModelError("burst into disabled ICAP")
        cycles = self.burst_cycles(words, words_per_cycle)
        duration = self.clock.cycles_duration(cycles)
        self.words_accepted += words
        return duration

    def absorb(self, data: bytes, words_per_cycle: float = 1.0) -> int:
        """Accept actual configuration data: timing + integrity.

        ``data`` is the big-endian stream, four bytes per 32-bit word,
        as it leaves BRAM or the decompressor; a length that is not a
        multiple of 4 raises :class:`HardwareModelError`.  Returns the
        burst duration of ``len(data) // 4`` words like
        :meth:`accept_burst`, folds the bytes into the port's running
        CRC so a run can be verified bit-exact against the source
        bitstream, and hands them to the attached configuration logic.
        """
        if len(data) % WORD_BYTES:
            raise HardwareModelError(
                f"ICAP absorbs whole 32-bit words; got {len(data)} bytes"
            )
        duration = self.accept_burst(len(data) // WORD_BYTES,
                                     words_per_cycle)
        self._crc = zlib.crc32(data, self._crc)
        if self.config_logic is not None:
            self.config_logic.feed_words(data)
        return duration

    def readback(self, origin, frame_count: int):
        """Read ``frame_count`` frames back through the port (FDRO).

        Drives the RCFG/FAR/FDRO packet sequence into the attached
        configuration logic and returns ``(words, duration_ps)``.
        Readback traffic is control-plane: it does not contribute to
        the payload CRC that verifies forward configuration.
        """
        if self.config_logic is None:
            raise HardwareModelError("readback needs configuration logic")
        if not self._enabled:
            raise HardwareModelError("readback through disabled ICAP")
        if frame_count <= 0:
            raise HardwareModelError("frame count must be positive")
        from repro.bitstream.format import (
            Command,
            ConfigPacket,
            ConfigRegister,
            Opcode,
            SYNC_WORD,
            command_packet,
            write_packet,
        )
        logic = self.config_logic
        words_out = frame_count * self.device.frame_words
        sequence = []
        if not logic.synced:
            sequence.append(SYNC_WORD)
        sequence += command_packet(Command.RCFG).encode()
        sequence += write_packet(ConfigRegister.FAR,
                                 [origin.pack()]).encode()
        sequence += ConfigPacket(Opcode.READ, ConfigRegister.FDRO,
                                 [0] * words_out, type2=True).encode()[:2]
        sequence += command_packet(Command.DESYNC).encode()
        before = len(logic.readback_data)
        logic.feed_words(words_to_bytes(sequence))
        data = logic.readback_data[before:]
        # One cycle per command word in, one per word out, plus the
        # pipeline pad frame the silicon inserts.
        cycles = len(sequence) + words_out + self.device.frame_words
        return data, self.clock.cycles_duration(cycles)

    @property
    def payload_crc(self) -> int:
        """CRC-32 of every byte absorbed since the last reset."""
        return self._crc & 0xFFFFFFFF

    def reset_payload(self) -> None:
        """Start a fresh integrity window (one per reconfiguration)."""
        self._crc = 0
        self.words_accepted = 0

    def data_accepted(self) -> DataSize:
        return DataSize(self.words_accepted * WORD_BYTES)

    def theoretical_bandwidth_mbps(self,
                                   frequency: Optional[object] = None) -> float:
        """4 bytes x frequency, the Fig. 5 'theoretical' plane."""
        freq = frequency if frequency is not None else self.clock.frequency
        return freq.hertz * self.word_bytes / (1024 * 1024)
