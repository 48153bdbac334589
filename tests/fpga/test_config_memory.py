"""Configuration memory and packet-interpreting logic."""

import pytest

from repro.bitstream.device import VIRTEX5_SX50T, VIRTEX6_LX240T
from repro.bitstream.format import (
    Command,
    ConfigRegister,
    SYNC_WORD,
    command_packet,
    words_to_bytes,
    write_packet,
)
from repro.bitstream.frames import BlockType, FrameAddress
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
