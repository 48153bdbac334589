"""Dual-port block-RAM bitstream buffer.

UReC's bitstream store: 256 KB of BRAM with one port owned by the
Manager (preloading at CLK_1) and the other by UReC (burst reads at
CLK_2).  Because the two ports are independent, preloading can overlap
with computation, and the reconfiguration-time cost is only the read
side — the property Section III-B builds on.

Two modelling details matter to the results:

* **Capacity** — 256 KB (64 K words) by default; oversized bitstreams
  must go through compression (operating mode ii).  The first word the
  Manager writes is the size+mode header of Fig. 3.
* **Frequency** — Virtex-5 BRAM is guaranteed to 300 MHz.  The paper
  nevertheless reads it at 362.5 MHz; the model allows driving the read
  port beyond spec when ``allow_overclock`` is set (UReC's custom
  interface is why this works), but never beyond the demonstrated ICAP
  limit.

The store holds bytes, big-endian, four per 32-bit word: what the
Manager copies in is what UReC bursts out to ICAP, with no word-list
conversion on either port.  Offsets and counts are in words.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CapacityError, FrequencyError, HardwareModelError
from repro.sim import ActivityTrace, Clock, Simulator
from repro.units import WORD_BYTES, DataSize, Frequency

DEFAULT_BRAM_BYTES = 256 * 1024


class Bram:
    """Dual-port BRAM: port A preloads, port B streams out."""

    def __init__(self, sim: Simulator, capacity: DataSize = DataSize(DEFAULT_BRAM_BYTES),
                 max_frequency: Frequency = Frequency.from_mhz(300),
                 allow_overclock: bool = True) -> None:
        if capacity.bytes <= 0 or capacity.bytes % WORD_BYTES:
            raise CapacityError(
                f"BRAM capacity must be a positive word multiple, got "
                f"{capacity.bytes}"
            )
        self._sim = sim
        self.capacity = capacity
        self.max_frequency = max_frequency
        self._allow_overclock = allow_overclock
        self._data = bytearray(capacity.bytes)
        self.valid_words = 0
        self.port_a_activity = ActivityTrace(sim, "bram.port_a")
        self.port_b_activity = ActivityTrace(sim, "bram.port_b")
        self._port_b_enabled = False

    # -- port A: Manager preload --------------------------------------

    def preload(self, data: bytes, offset: int = 0) -> None:
        """Write the big-endian ``data`` starting at word ``offset``.

        Port A takes whole 32-bit words: a length that is not a
        multiple of 4 raises :class:`HardwareModelError`.  Timing is
        accounted by the Manager (bus + memory read side); the BRAM
        itself accepts one word per CLK_1 cycle.
        """
        if not isinstance(data, bytes):
            data = memoryview(data).tobytes()  # a word list raises here
        if len(data) % WORD_BYTES:
            raise HardwareModelError(
                f"preload of {len(data)} bytes is not whole 32-bit words"
            )
        if offset < 0:
            raise CapacityError("negative offset")
        words = len(data) // WORD_BYTES
        if offset + words > self.capacity.words:
            raise CapacityError(
                f"preload of {words} words at offset {offset} exceeds "
                f"BRAM capacity of {self.capacity.words} words "
                f"({self.capacity})"
            )
        start = offset * WORD_BYTES
        self._data[start:start + len(data)] = data
        self.valid_words = max(self.valid_words, offset + words)

    def preload_cycles(self, words: int) -> int:
        """Port-A cycles to accept ``words`` (one per cycle)."""
        return words

    # -- port B: UReC burst read --------------------------------------

    def enable_read_port(self, clock: Clock) -> None:
        """EN assertion on port B; validates the frequency envelope."""
        if self._port_b_enabled:
            raise HardwareModelError("BRAM read port already enabled")
        if not self._allow_overclock and clock.frequency > self.max_frequency:
            raise FrequencyError(
                f"BRAM read port at {clock.frequency} exceeds guaranteed "
                f"{self.max_frequency}"
            )
        self._port_b_enabled = True
        self.port_b_activity.begin()

    def disable_read_port(self) -> None:
        if not self._port_b_enabled:
            raise HardwareModelError("BRAM read port not enabled")
        self._port_b_enabled = False
        self.port_b_activity.end()

    def read_word(self, address: int) -> int:
        """Combinational-view read used for header decoding."""
        if not self._port_b_enabled:
            raise HardwareModelError("read from disabled port B")
        if not 0 <= address < self.capacity.words:
            raise CapacityError(f"word address {address} out of range")
        start = address * WORD_BYTES
        return int.from_bytes(self._data[start:start + WORD_BYTES], "big")

    def read_burst(self, start: int, count: int) -> bytes:
        """Burst read of ``count`` words (one per port-B cycle), as bytes."""
        if not self._port_b_enabled:
            raise HardwareModelError("burst read from disabled port B")
        if start < 0 or start + count > self.capacity.words:
            raise CapacityError(
                f"burst [{start}, {start + count}) exceeds BRAM capacity"
            )
        return bytes(self._data[start * WORD_BYTES:
                                (start + count) * WORD_BYTES])

    def fits(self, size: DataSize) -> bool:
        """Whether a payload fits (+1 word for the Fig. 3 header)."""
        return size.words + 1 <= self.capacity.words

    @property
    def stored(self) -> Optional[DataSize]:
        if self.valid_words == 0:
            return None
        return DataSize.from_words(self.valid_words)
