"""Configuration memory and packet-interpreting logic."""

import dataclasses
import tracemalloc

import pytest

from repro.bitstream.device import VIRTEX5_SX50T, VIRTEX6_LX240T
from repro.bitstream.format import (
    Command,
    ConfigPacket,
    ConfigRegister,
    Opcode,
    SYNC_WORD,
    command_packet,
    words_to_bytes,
    write_packet,
)
from repro.bitstream.frames import BlockType, FrameAddress, frame_layout
from repro.bitstream.generator import REGION_ORIGIN, generate_bitstream
from repro.errors import BitstreamFormatError, DeviceMismatchError
from repro.fpga.config_memory import (
    ConfigurationLogic,
    ConfigurationMemory,
)
from repro.units import DataSize


@pytest.fixture
def memory():
    return ConfigurationMemory(VIRTEX5_SX50T)


@pytest.fixture
def logic(memory):
    return ConfigurationLogic(memory)


class TestConfigurationMemory:
    def test_write_read_roundtrip(self, memory):
        address = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4, 0)
        words = list(range(41))
        memory.write_frame(address, words)
        assert memory.read_frame(address) == words

    def test_unwritten_frame_is_none(self, memory):
        address = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 9, 9)
        assert memory.read_frame(address) is None

    def test_wrong_frame_size_rejected(self, memory):
        address = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4, 0)
        with pytest.raises(BitstreamFormatError):
            memory.write_frame(address, [0] * 40)

    def test_frames_from_enumerates_consecutively(self, memory):
        start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4, 0)
        memory.write_frame(start, [1] * 41)
        memory.write_frame(start.next_in(VIRTEX5_SX50T), [2] * 41)
        frames = memory.frames_from(start, 3)
        assert frames[0] == [1] * 41
        assert frames[1] == [2] * 41
        assert frames[2] is None

    def test_read_returns_copy(self, memory):
        address = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4, 0)
        memory.write_frame(address, [7] * 41)
        frame = memory.read_frame(address)
        frame[0] = 99
        assert memory.read_frame(address)[0] == 7


def run_of(*fills):
    """Consecutive frames, frame ``i`` filled with the word ``fills[i]``."""
    return b"".join(words_to_bytes([fill] * VIRTEX5_SX50T.frame_words)
                    for fill in fills)


def frame_of(fill):
    return [fill] * VIRTEX5_SX50T.frame_words


class TestFrameRuns:
    """``write_frames`` keeps in-geometry runs whole until a read."""

    layout = frame_layout(VIRTEX5_SX50T)

    def test_later_single_frame_write_wins_over_a_run(self, memory):
        start = self.layout.addresses[10]
        memory.write_frames(start, run_of(1, 2, 3))
        inside = self.layout.addresses[11]
        memory.write_frame(inside, frame_of(9))
        assert memory.frames_from(start, 3) == \
            [frame_of(1), frame_of(9), frame_of(3)]

    def test_overlapping_runs_fold_in_write_order(self, memory):
        addresses = self.layout.addresses
        memory.write_frames(addresses[0], run_of(1, 1, 1, 1))
        memory.write_frames(addresses[2], run_of(2, 2, 2, 2))
        memory.write_frames(addresses[1], run_of(3))
        fills = [1, 3, 2, 2, 2, 2]
        assert memory.snapshot() == {
            address.pack(): words_to_bytes(frame_of(fill))
            for address, fill in zip(addresses, fills)}

    def test_configured_frames_counts_unique_fars(self, memory):
        addresses = self.layout.addresses
        memory.write_frames(addresses[0], run_of(1, 1, 1))
        memory.write_frames(addresses[1], run_of(2, 2, 2))
        assert memory.configured_frames == 4

    def test_run_wraps_the_layout_cycle(self, memory):
        addresses = self.layout.addresses
        following = memory.write_frames(addresses[-2], run_of(1, 2, 3, 4))
        assert following == addresses[2]
        assert memory.read_frame(addresses[-2]) == frame_of(1)
        assert memory.read_frame(addresses[-1]) == frame_of(2)
        assert memory.read_frame(addresses[0]) == frame_of(3)
        assert memory.read_frame(addresses[1]) == frame_of(4)
        assert memory.configured_frames == 4

    def test_out_of_geometry_start_after_a_pending_run(self, memory):
        # Minor 36 is past the device's 36 minor frames: the write
        # steps arithmetically, and its second frame wraps into
        # geometry at the run's second frame.
        outside = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 5, 36)
        inside = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 6, 0)
        assert outside.next_in(VIRTEX5_SX50T) == inside
        start = self.layout.addresses[self.layout.position(inside) - 1]
        memory.write_frames(start, run_of(1, 2, 3))
        following = memory.write_frames(outside, run_of(8, 9))
        assert following == inside.next_in(VIRTEX5_SX50T)
        assert memory.read_frame(outside) == frame_of(8)
        assert memory.frames_from(start, 3) == \
            [frame_of(1), frame_of(9), frame_of(3)]

    def test_fdro_readback_straight_after_a_bulk_write(self, logic):
        start = self.layout.addresses[40]
        logic.memory.write_frames(start, run_of(5, 6))
        sequence = [SYNC_WORD]
        sequence += command_packet(Command.RCFG).encode()
        sequence += write_packet(ConfigRegister.FAR,
                                 [start.pack()]).encode()
        sequence += ConfigPacket(Opcode.READ, ConfigRegister.FDRO,
                                 [0] * 82, type2=True).encode()[:2]
        logic.feed_words(words_to_bytes(sequence))
        assert logic.readback_data == frame_of(5) + frame_of(6)

    def test_mutating_the_callers_buffer_leaves_frames_alone(self, memory):
        buffer = bytearray(run_of(1, 2))
        memory.write_frames(self.layout.addresses[0], buffer)
        buffer[:] = bytes(len(buffer))
        assert memory.frames_from(self.layout.addresses[0], 2) == \
            [frame_of(1), frame_of(2)]

    def test_unread_runs_hold_no_more_than_the_device(self):
        # A 72-frame device: 200 unread full-cycle runs would pin
        # 200 x 11.8 KB if pending runs were never folded.
        tiny = dataclasses.replace(VIRTEX5_SX50T, name="tiny", columns=1,
                                   rows=2)
        memory = ConfigurationMemory(tiny)
        start = frame_layout(tiny).addresses[0]
        cycle = len(frame_layout(tiny))
        run = bytes(cycle * tiny.frame_bytes)
        tracemalloc.start()
        try:
            for fill in range(200):
                memory.write_frames(start, bytes([fill]) + run[1:])
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 8 * len(run)
        assert memory.configured_frames == cycle


class TestConfigurationLogic:
    def test_ignores_words_before_sync(self, logic):
        logic.feed_words(words_to_bytes([0xFFFFFFFF, 0x000000BB, 0x11220044]))
        assert not logic.synced
        logic.feed_word(SYNC_WORD)
        assert logic.synced

    def test_full_generated_bitstream_configures_frames(self, logic):
        bitstream = generate_bitstream(size=DataSize.from_kb(8))
        logic.feed_words(bitstream.raw_bytes)
        assert logic.frames_written == bitstream.frame_count
        assert logic.crc_checks_passed == 1
        assert logic.desync_count == 1
        assert not logic.synced

    def test_frame_contents_match_generator_payload(self, logic):
        bitstream = generate_bitstream(size=DataSize.from_kb(8))
        logic.feed_words(bitstream.raw_bytes)
        frames = logic.memory.frames_from(REGION_ORIGIN,
                                          bitstream.frame_count)
        flat = [word for frame in frames for word in frame]
        start = bitstream.frame_payload_offset
        expected = bitstream.raw_words[start:start
                                       + bitstream.frame_payload_words]
        assert flat == expected

    def test_same_stream_twice_reconfigures(self, logic):
        bitstream = generate_bitstream(size=DataSize.from_kb(8))
        logic.feed_words(bitstream.raw_bytes)
        logic.feed_words(bitstream.raw_bytes)
        assert logic.sync_count == 2
        assert logic.frames_written == 2 * bitstream.frame_count

    def test_corrupted_frame_word_fails_crc(self, logic):
        bitstream = generate_bitstream(size=DataSize.from_kb(8))
        words = list(bitstream.raw_words)
        words[bitstream.frame_payload_offset + 5] ^= 0x00010000
        with pytest.raises(BitstreamFormatError, match="CRC mismatch"):
            logic.feed_words(words_to_bytes(words))

    def test_wrong_device_idcode_rejected(self):
        logic = ConfigurationLogic(ConfigurationMemory(VIRTEX6_LX240T))
        bitstream = generate_bitstream(size=DataSize.from_kb(8))
        with pytest.raises(DeviceMismatchError):
            logic.feed_words(bitstream.raw_bytes)

    def test_fdri_without_wcfg_rejected(self, logic):
        logic.feed_word(SYNC_WORD)
        words = []
        words += write_packet(ConfigRegister.IDCODE,
                              [VIRTEX5_SX50T.idcode]).encode()
        words += write_packet(
            ConfigRegister.FAR,
            [FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4, 0).pack()]
        ).encode()
        words += write_packet(ConfigRegister.FDRI, [0]).encode()
        with pytest.raises(BitstreamFormatError, match="WCFG"):
            logic.feed_words(words_to_bytes(words))

    def test_fdri_without_far_rejected(self, logic):
        logic.feed_word(SYNC_WORD)
        words = []
        words += write_packet(ConfigRegister.IDCODE,
                              [VIRTEX5_SX50T.idcode]).encode()
        words += command_packet(Command.WCFG).encode()
        words += write_packet(ConfigRegister.FDRI, [0]).encode()
        with pytest.raises(BitstreamFormatError, match="FAR"):
            logic.feed_words(words_to_bytes(words))

    def test_fdri_before_idcode_rejected(self, logic):
        logic.feed_word(SYNC_WORD)
        words = []
        words += command_packet(Command.WCFG).encode()
        words += write_packet(
            ConfigRegister.FAR,
            [FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4, 0).pack()]
        ).encode()
        words += write_packet(ConfigRegister.FDRI, [0]).encode()
        with pytest.raises(BitstreamFormatError, match="IDCODE"):
            logic.feed_words(words_to_bytes(words))

    def test_undefined_register_rejected(self, logic):
        logic.feed_word(SYNC_WORD)
        header = (0b001 << 29) | (2 << 27) | (31 << 13) | 1
        with pytest.raises(BitstreamFormatError):
            logic.feed_words(words_to_bytes([header, 0]))

    def test_unaligned_stream_rejected(self, logic):
        with pytest.raises(BitstreamFormatError, match="not word aligned"):
            logic.feed_words(words_to_bytes([SYNC_WORD]) + b"\x20")
        assert not logic.synced

    def test_word_list_is_not_a_stream(self, logic):
        with pytest.raises(TypeError):
            logic.feed_words([SYNC_WORD, 0, 0, 0])

    def test_orphan_type2_rejected(self, logic):
        logic.feed_word(SYNC_WORD)
        with pytest.raises(BitstreamFormatError):
            logic.feed_word((0b010 << 29) | (2 << 27) | 5)

    def test_permissive_crc_mode(self):
        logic = ConfigurationLogic(ConfigurationMemory(VIRTEX5_SX50T),
                                   strict_crc=False)
        bitstream = generate_bitstream(size=DataSize.from_kb(8))
        words = list(bitstream.raw_words)
        words[bitstream.frame_payload_offset] ^= 1
        logic.feed_words(words_to_bytes(words))  # must not raise
        assert logic.crc_checks_passed == 0


class TestSystemIntegration:
    def test_uparc_run_configures_frames(self, small_bitstream):
        from repro.core.system import UPaRCSystem
        system = UPaRCSystem(decompressor=None)
        result = system.run(small_bitstream)
        assert result.frames_written == small_bitstream.frame_count
        frames = system.config_memory.frames_from(
            REGION_ORIGIN, small_bitstream.frame_count)
        assert all(frame is not None for frame in frames)

    def test_compressed_run_configures_identical_frames(self,
                                                        small_bitstream):
        from repro.core.system import UPaRCSystem
        from repro.core.urec import OperationMode
        raw = UPaRCSystem(decompressor=None)
        raw.run(small_bitstream)
        compressed = UPaRCSystem()
        compressed.run(small_bitstream, mode=OperationMode.COMPRESSED)
        count = small_bitstream.frame_count
        assert raw.config_memory.frames_from(REGION_ORIGIN, count) \
            == compressed.config_memory.frames_from(REGION_ORIGIN, count)

    def test_baselines_configure_frames(self, small_bitstream):
        from repro.controllers import Farm
        result = Farm().best_result(small_bitstream)
        assert result.frames_written == small_bitstream.frame_count


def test_nop_packet_with_payload_is_skipped(logic):
    """NOP headers may carry padding payload; the words must be
    consumed, not decoded as headers."""
    logic.feed_word(SYNC_WORD)
    nop_with_payload = (0b001 << 29) | (0 << 27) | 3  # NOP, count 3
    # Padding that would crash if misread as headers.
    logic.feed_words(words_to_bytes([nop_with_payload, 0xFFFFFFFF,
                                     0x00000000, 0xDEADBEEF]))
    assert logic.synced
    # The session continues normally afterwards (desync, then a fresh
    # full bitstream).
    logic.feed_words(words_to_bytes(command_packet(Command.DESYNC).encode()))
    bitstream = generate_bitstream(size=DataSize.from_kb(8))
    logic.feed_words(bitstream.raw_bytes)
    assert logic.frames_written == bitstream.frame_count
