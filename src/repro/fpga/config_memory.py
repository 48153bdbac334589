"""Configuration memory and the packet-interpreting configuration logic.

This is what sits *behind* the ICAP pins: the device's configuration
memory (frames addressed by FAR) and the logic that interprets the
incoming word stream — sync detection, type-1/type-2 packet decode,
command sequencing (WCFG before frame data, RCRC, DESYNC), FAR
auto-increment across consecutive frames, and the end-of-bitstream
CRC check.

With this model a UPaRC run does not merely *time* a transfer: the
frames of the reconfigured region really change, and a corrupted or
mis-ordered stream is rejected exactly where the silicon would reject
it.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bitstream.crc import ConfigCrc
from repro.bitstream.device import DeviceInfo
from repro.bitstream.format import (
    Command,
    ConfigRegister,
    Opcode,
    SYNC_WORD,
    bytes_to_words,
    words_to_bytes,
)
from repro.bitstream.frames import FrameAddress, frame_layout
from repro.errors import BitstreamFormatError, DeviceMismatchError

_TYPE1_COUNT_MASK = (1 << 11) - 1
_TYPE2_COUNT_MASK = (1 << 27) - 1


class ConfigurationMemory:
    """Frame store addressed by packed FAR values.

    Frames are kept as their big-endian bytes, the form the stream
    carries them in; the word-list methods pack and unpack at the edge.

    An in-geometry :meth:`write_frames` stores its run whole: the
    packed FARs it covers and the run's bytes wait in a pending list,
    and are split into frames only when something reads the store
    (or writes a single frame).  Runs fold in write order, so a later
    write to a FAR still wins.  A bulk configuration that nothing
    reads back costs one list append instead of one slice and one
    dictionary entry per frame.
    """

    def __init__(self, device: DeviceInfo) -> None:
        self.device = device
        self._frames: Dict[int, bytes] = {}
        #: Unsplit runs, oldest first: (packed FARs, the run's bytes).
        self._pending: List[Tuple[Sequence[int], bytes]] = []
        self._pending_frames = 0

    def _settle(self) -> None:
        """Split every pending run into ``_frames``, in write order."""
        if not self._pending:
            return
        frame_bytes = self.device.frame_bytes
        frames = self._frames
        for keys, data in self._pending:
            frames.update(zip(keys, [
                data[offset:offset + frame_bytes]
                for offset in range(0, len(data), frame_bytes)]))
        self._pending.clear()
        self._pending_frames = 0

    def write_frame(self, address: FrameAddress, words: List[int]) -> None:
        if len(words) != self.device.frame_words:
            raise BitstreamFormatError(
                f"frame write of {len(words)} words; {self.device.name} "
                f"frames are {self.device.frame_words} words"
            )
        self._settle()
        self._frames[address.pack()] = words_to_bytes(words)

    def write_frames(self, start: FrameAddress, data: bytes) -> FrameAddress:
        """Store whole frames from ``start`` on; returns the next FAR.

        ``data`` holds consecutive frames in device order, exactly as
        FDRI auto-increment writes them.  An in-geometry run becomes
        one pending run against the layout's packed FARs (wrapping at
        the end of the cycle); an out-of-geometry start steps with
        :meth:`FrameAddress.next_in` frame by frame.
        """
        device = self.device
        frame_bytes = device.frame_bytes
        if len(data) % frame_bytes:
            raise BitstreamFormatError(
                f"frame write of {len(data)} bytes; {device.name} "
                f"frames are {frame_bytes} bytes"
            )
        if not isinstance(data, bytes):
            data = bytes(data)  # the caller may mutate its buffer
        count = len(data) // frame_bytes
        layout = frame_layout(device, start.block_type)
        first = layout.position(start)
        if first is None:
            self._settle()
            address = start
            for offset in range(0, len(data), frame_bytes):
                self._frames[address.pack()] = \
                    data[offset:offset + frame_bytes]
                address = address.next_in(device)
            return address
        cycle = len(layout)
        end = first + count
        if end <= cycle:
            keys: Sequence[int] = layout.packed[first:end]
        else:
            keys = [layout.packed[index % cycle]
                    for index in range(first, end)]
        # Fold once the pending runs cover a whole layout cycle: a
        # memory that is never read then holds about one device of
        # frames, as a settled one would, not every run ever written.
        if self._pending_frames >= cycle:
            self._settle()
        self._pending.append((keys, data))
        self._pending_frames += count
        return layout.addresses[end % cycle]

    def read_frame(self, address: FrameAddress) -> Optional[List[int]]:
        """Frame contents, or None if never configured."""
        self._settle()
        frame = self._frames.get(address.pack())
        return bytes_to_words(frame) if frame is not None else None

    @property
    def configured_frames(self) -> int:
        self._settle()
        return len(self._frames)

    def snapshot(self) -> Dict[int, bytes]:
        """Every configured frame: ``{packed FAR: frame bytes}`` (a copy)."""
        self._settle()
        return dict(self._frames)

    def frames_from(self, start: FrameAddress,
                    count: int) -> List[Optional[List[int]]]:
        """Read ``count`` consecutive frames starting at ``start``."""
        frames = []
        address = start
        for _ in range(count):
            frames.append(self.read_frame(address))
            address = address.next_in(self.device)
        return frames


class _State(enum.Enum):
    UNSYNCED = "unsynced"
    IDLE = "idle"            # synced, expecting a packet header
    PAYLOAD = "payload"      # consuming payload words
    SKIP = "skip"            # consuming payload of a NOP/ignored packet


class ConfigurationLogic:
    """Streaming interpreter of the post-ICAP word stream."""

    def __init__(self, memory: ConfigurationMemory,
                 strict_crc: bool = True) -> None:
        self.memory = memory
        self._strict_crc = strict_crc
        self._crc = ConfigCrc()
        self._state = _State.UNSYNCED
        self._register: Optional[ConfigRegister] = None
        self._opcode = Opcode.NOP
        self._remaining = 0
        self._far: Optional[FrameAddress] = None
        self._command: Optional[Command] = None
        #: Bytes of a frame not yet complete (FDRI data between frames).
        self._frame_buffer = bytearray()
        self._idcode_checked = False
        self.sync_count = 0
        self.desync_count = 0
        self.frames_written = 0
        self.crc_checks_passed = 0
        #: Words produced by FDRO read packets (readback path).
        self.readback_data: List[int] = []

    # -- public feed ----------------------------------------------------

    def feed_word(self, word: int) -> None:
        if self._state is _State.UNSYNCED:
            if word == SYNC_WORD:
                self._state = _State.IDLE
                self.sync_count += 1
            return  # dummy / bus-width detect words
        if self._state is _State.PAYLOAD:
            self._payload_word(word)
            return
        if self._state is _State.SKIP:
            self._remaining -= 1
            if self._remaining == 0:
                self._state = _State.IDLE
            return
        self._header_word(word)

    def feed_words(self, data: bytes) -> None:
        """Feed a chunk of the big-endian stream; semantically per-word.

        ``data`` is the stream as ICAP receives it, four bytes per
        word; a length that is not a multiple of 4 is rejected.
        Control words are decoded one at a time into :meth:`feed_word`.
        FDRI frame payloads (which dominate every bitstream) and
        skipped NOP payloads take a bulk path that consumes the
        largest safe span of bytes per iteration: the CRC folds the
        span in one call and whole frames land in memory in one
        :meth:`ConfigurationMemory.write_frames`.  State, frames and
        CRC are bit-identical to feeding the words one by one.
        """
        if not isinstance(data, bytes):
            data = memoryview(data).tobytes()  # a word list raises here
        total = len(data)
        if total % 4:
            raise BitstreamFormatError(
                f"configuration stream of {total} bytes is not word "
                f"aligned"
            )
        index = 0
        while index < total:
            if (self._state is _State.PAYLOAD
                    and self._register is ConfigRegister.FDRI
                    and self._command is Command.WCFG
                    and self._far is not None
                    and self._idcode_checked):
                take = min(4 * self._remaining, total - index)
                self._frame_data_block(data[index:index + take])
                self._remaining -= take // 4
                if self._remaining == 0:
                    self._state = _State.IDLE
                index += take
            elif self._state is _State.SKIP:
                take = min(4 * self._remaining, total - index)
                self._remaining -= take // 4
                if self._remaining == 0:
                    self._state = _State.IDLE
                index += take
            else:
                self.feed_word(int.from_bytes(data[index:index + 4], "big"))
                index += 4

    @property
    def synced(self) -> bool:
        return self._state is not _State.UNSYNCED

    def abort(self) -> None:
        """Abandon the current stream (recovery after a failed load).

        Equivalent to toggling PROG_B on the port side: the decoder
        returns to the pre-sync state and all partial packet state is
        dropped.  Already-written frames remain (as in silicon — a
        failed partial load leaves the region in an undefined mix,
        which is why callers re-load the golden bitstream afterwards).
        """
        self._state = _State.UNSYNCED
        self._register = None
        self._remaining = 0
        self._frame_buffer.clear()
        self._crc.reset()

    # -- packet machinery --------------------------------------------------

    def _header_word(self, word: int) -> None:
        packet_type = word >> 29
        if packet_type == 0b001:
            self._opcode = Opcode((word >> 27) & 0b11)
            address = (word >> 13) & 0x3FFF
            try:
                self._register = ConfigRegister(address)
            except ValueError:
                raise BitstreamFormatError(
                    f"write to undefined register {address}"
                ) from None
            self._remaining = word & _TYPE1_COUNT_MASK
            self._begin_payload()
        elif packet_type == 0b010:
            if self._register is None:
                raise BitstreamFormatError(
                    "type-2 packet without preceding type-1"
                )
            self._opcode = Opcode((word >> 27) & 0b11)
            self._remaining = word & _TYPE2_COUNT_MASK
            self._begin_payload()
        else:
            raise BitstreamFormatError(
                f"invalid packet header {word:#010x}"
            )

    def _begin_payload(self) -> None:
        if self._remaining > 0 and self._opcode is Opcode.WRITE:
            self._state = _State.PAYLOAD
            return
        if self._remaining > 0 and self._opcode is Opcode.READ:
            self._serve_read(self._remaining)
            self._state = _State.IDLE
            return
        if self._remaining > 0:
            # A NOP header can legally carry a payload count; the
            # words are padding and must be consumed, not decoded.
            self._state = _State.SKIP
            return
        self._state = _State.IDLE  # zero-payload header

    def _serve_read(self, count: int) -> None:
        """FDRO readback: stream ``count`` words out of frame memory.

        Requires the RCFG command and a FAR, mirroring the write path's
        sequencing.  (The silicon additionally pads the first pipeline
        frame; that constant is absorbed into the caller's timing.)
        """
        if self._register is not ConfigRegister.FDRO:
            raise BitstreamFormatError(
                f"read from non-readable register {self._register}"
            )
        if self._command is not Command.RCFG:
            raise BitstreamFormatError(
                "FDRO read without a preceding RCFG command"
            )
        if self._far is None:
            raise BitstreamFormatError("FDRO read without a FAR address")
        device = self.memory.device
        remaining = count
        address = self._far
        while remaining > 0:
            frame = self.memory.read_frame(address)
            words = frame if frame is not None \
                else [0] * device.frame_words
            take = min(remaining, len(words))
            self.readback_data.extend(words[:take])
            remaining -= take
            address = address.next_in(device)
        self._far = address

    def _payload_word(self, word: int) -> None:
        assert self._register is not None
        self._dispatch_write(self._register, word)
        self._remaining -= 1
        if self._state is _State.UNSYNCED:
            return  # a DESYNC command ended the session mid-packet
        if self._remaining == 0:
            self._state = _State.IDLE

    # -- register semantics ---------------------------------------------------

    def _dispatch_write(self, register: ConfigRegister, word: int) -> None:
        if register is ConfigRegister.CRC:
            self._check_crc(word)
            return
        self._crc.update(int(register), word)
        if register is ConfigRegister.FAR:
            self._far = FrameAddress.unpack(word)
            self._frame_buffer.clear()
        elif register is ConfigRegister.CMD:
            self._execute_command(Command(word & 0x1F))
        elif register is ConfigRegister.IDCODE:
            if word != self.memory.device.idcode:
                raise DeviceMismatchError(
                    f"bitstream IDCODE {word:#010x} does not match "
                    f"{self.memory.device.name} "
                    f"({self.memory.device.idcode:#010x})"
                )
            self._idcode_checked = True
        elif register is ConfigRegister.FDRI:
            self._frame_data_word(word)
        # COR0/CTL0/MASK/...: accepted, CRC'd, no modelled side effect.

    def _execute_command(self, command: Command) -> None:
        self._command = command
        if command is Command.RCRC:
            self._crc.reset()
        elif command is Command.DESYNC:
            self._state = _State.UNSYNCED
            self._register = None
            self.desync_count += 1
        elif command is Command.WCFG:
            self._frame_buffer.clear()

    def _frame_data_block(self, block: bytes) -> None:
        """Bulk FDRI data: one CRC fold, whole frames in one write.

        Only entered once the per-word path's preconditions (WCFG
        command, FAR set, IDCODE checked) are established; violations
        still surface through :meth:`_frame_data_word`.  A frame split
        across two chunks waits in the partial-frame buffer.
        """
        self._crc.update_block_bytes(int(ConfigRegister.FDRI), block)
        memory = self.memory
        frame_bytes = memory.device.frame_bytes
        buffer = self._frame_buffer
        far = self._far
        position = 0
        count = len(block)
        if buffer:
            position = min(frame_bytes - len(buffer), count)
            buffer += block[:position]
            if len(buffer) == frame_bytes:
                far = memory.write_frames(far, bytes(buffer))
                buffer.clear()
                self.frames_written += 1
        whole = (count - position) // frame_bytes
        if whole:
            end = position + whole * frame_bytes
            far = memory.write_frames(far, block[position:end])
            self.frames_written += whole
            position = end
        buffer += block[position:]
        self._far = far

    def _frame_data_word(self, word: int) -> None:
        if self._command is not Command.WCFG:
            raise BitstreamFormatError(
                "FDRI data without a preceding WCFG command"
            )
        if self._far is None:
            raise BitstreamFormatError("FDRI data without a FAR address")
        if not self._idcode_checked:
            raise BitstreamFormatError(
                "FDRI data before the IDCODE check"
            )
        # The reference path: one frame write and one FAR step per
        # frame, independent of the bulk ``write_frames``.
        buffer = self._frame_buffer
        buffer += word.to_bytes(4, "big")
        if len(buffer) == self.memory.device.frame_bytes:
            self.memory.write_frame(self._far, bytes_to_words(buffer))
            buffer.clear()
            self._far = self._far.next_in(self.memory.device)
            self.frames_written += 1

    def _check_crc(self, word: int) -> None:
        if self._crc.check(word):
            self.crc_checks_passed += 1
            self._crc.reset()
            return
        if self._strict_crc:
            raise BitstreamFormatError(
                f"configuration CRC mismatch: stream carries {word:#010x}, "
                f"logic computed {self._crc.value:#010x}"
            )
        # Permissive mode (placeholder CRCs): count it as unchecked.
        self._crc.reset()
