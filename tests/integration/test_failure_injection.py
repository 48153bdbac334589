"""Failure injection: the system must *fail loudly*, never deliver
wrong configuration silently.

Each test corrupts one link of the chain (staging BRAM content,
compressed payload, device identity, clock envelope) and asserts the
failure surfaces as the right exception at the right layer.
"""

import pytest

from repro.bitstream.device import VIRTEX6_LX240T
from repro.bitstream.generator import generate_bitstream
from repro.core.system import UPaRCSystem
from repro.core.urec import OperationMode, pack_header
from repro.errors import (
    BitstreamFormatError,
    CapacityError,
    CorruptStreamError,
    DeviceMismatchError,
    FrequencyError,
)
from repro.units import DataSize, Frequency


def mhz(value):
    return Frequency.from_mhz(value)


def bram_word(bram, address):
    """Word ``address`` of the staging store (big-endian bytes)."""
    return int.from_bytes(bram._data[4 * address:4 * address + 4], "big")


def set_bram_word(bram, address, word):
    bram._data[4 * address:4 * address + 4] = word.to_bytes(4, "big")


class TestBramUpsets:
    def test_flipped_frame_bit_fails_config_crc(self, small_bitstream):
        system = UPaRCSystem(decompressor=None)
        system.preload(small_bitstream)
        # SEU in the staging BRAM: flip one bit of a frame word.
        address = 100
        word = bram_word(system.bram, address)
        set_bram_word(system.bram, address, word ^ (1 << 7))
        with pytest.raises(BitstreamFormatError, match="CRC mismatch"):
            system.reconfigure()

    def test_corrupted_header_size_detected(self, small_bitstream):
        system = UPaRCSystem(decompressor=None)
        system.preload(small_bitstream)
        # Corrupt the Fig. 3 header: claim a shorter payload.  The
        # stream then ends mid-packet and the payload CRC cannot match.
        good_words = len(small_bitstream.raw_words)
        set_bram_word(system.bram, 0, pack_header(OperationMode.RAW,
                                                  good_words - 50))
        from repro.errors import ReconfigurationFailed
        with pytest.raises((BitstreamFormatError, ReconfigurationFailed)):
            system.reconfigure()


class TestCompressedPathCorruption:
    def test_corrupted_compressed_payload_detected(self, small_bitstream):
        system = UPaRCSystem()
        system.preload(small_bitstream, OperationMode.COMPRESSED)
        # Flip a byte deep inside the compressed stream.
        target = 1 + (system.bram.valid_words // 2)
        set_bram_word(system.bram, target,
                      bram_word(system.bram, target) ^ 0x00000100)
        with pytest.raises((CorruptStreamError, BitstreamFormatError)):
            system.reconfigure()


class TestDeviceMismatch:
    def test_v5_bitstream_on_v6_system(self, small_bitstream):
        system = UPaRCSystem(device=VIRTEX6_LX240T, decompressor=None)
        system.preload(small_bitstream)
        with pytest.raises(DeviceMismatchError):
            system.reconfigure()


class TestEnvelopeViolations:
    def test_clk2_beyond_demonstrated_limit(self, small_bitstream):
        system = UPaRCSystem(decompressor=None)
        with pytest.raises(FrequencyError):
            system.set_frequency(mhz(380))
            system.preload(small_bitstream)
            system.reconfigure()

    def test_v6_cannot_run_at_v5_maximum(self, small_bitstream):
        bitstream = generate_bitstream(size=DataSize.from_kb(8),
                                       device=VIRTEX6_LX240T)
        system = UPaRCSystem(device=VIRTEX6_LX240T, decompressor=None)
        system.set_frequency(mhz(362.5))
        system.preload(bitstream)
        with pytest.raises(FrequencyError):
            system.reconfigure()

    def test_oversized_raw_preload_rejected(self):
        big = generate_bitstream(size=DataSize.from_kb(300))
        system = UPaRCSystem(bram_capacity=DataSize.from_kb(256),
                             decompressor=None)
        with pytest.raises(CapacityError):
            system.preload(big, OperationMode.RAW)


class TestRecoveryAfterFailure:
    def test_system_recovers_with_clean_reload(self, small_bitstream):
        system = UPaRCSystem(decompressor=None)
        system.preload(small_bitstream)
        set_bram_word(system.bram, 50, bram_word(system.bram, 50) ^ 1)
        with pytest.raises(BitstreamFormatError):
            system.reconfigure()
        # Reloading the golden bitstream restores service: abort the
        # half-consumed stream, then a fresh preload + run succeeds.
        system.config_logic.abort()
        system.preload(small_bitstream)
        result = system.reconfigure()
        assert result.verified
