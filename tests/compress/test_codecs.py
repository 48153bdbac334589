"""Per-codec behaviour tests (shared cases + codec-specific checks)."""

import random
import struct

import pytest

from repro import accel
from repro.compress import (
    DeflateCodec,
    HuffmanCodec,
    Lz77Codec,
    Lz78Codec,
    LzmaLikeCodec,
    RleCodec,
    XMatchProCodec,
    all_codecs,
    compression_ratio,
)
from repro.compress.lzbytes import LzByteStage
from repro.errors import CompressionError, CorruptStreamError

CODECS = [RleCodec(), Lz77Codec(), Lz78Codec(), HuffmanCodec(),
          XMatchProCodec(), DeflateCodec(), LzmaLikeCodec()]

CASES = {
    "empty": b"",
    "one-byte": b"\x42",
    "three-bytes": b"abc",
    "zeros": b"\x00" * 4096,
    "ones": b"\xFF" * 1000,
    "alternating": b"\xAA\x55" * 500,
    "word-runs": b"\xDE\xAD\xBE\xEF" * 300 + b"\x00\x00\x00\x00" * 300,
    "ascii": b"the quick brown fox jumps over the lazy dog " * 40,
    "random": random.Random(7).randbytes(4096),
    "unaligned": b"\x01\x02\x03\x04\x05\x06\x07",  # not a word multiple
}


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_roundtrip(codec, case):
    data = CASES[case]
    assert codec.decompress(codec.compress(data)) == data


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
def test_roundtrip_paper_bitstream(codec, paper_bitstream):
    """64 KB of the 216.5 KB campaign bitstream: long enough to reset
    LZ78's dictionary and fill the byte-LZ windows."""
    data = paper_bitstream.raw_bytes[:65536]
    assert codec.decompress(codec.compress(data)) == data


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
def test_compresses_redundant_input(codec):
    data = b"\x00" * 8192
    assert len(codec.compress(data)) < len(data) // 4


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
def test_measure_reports_sizes(codec):
    data = b"\x11\x22\x33\x44" * 256
    result = codec.measure(data)
    assert result.original_size == len(data)
    assert result.compressed_size == len(codec.compress(data))
    assert result.codec_name == codec.name


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
def test_truncated_stream_detected(codec):
    data = b"payload that compresses a little " * 30
    compressed = codec.compress(data)
    truncated = compressed[:len(compressed) // 2]
    with pytest.raises((CorruptStreamError, CompressionError)):
        # Either a clean error or, at minimum, NOT silently equal data.
        result = codec.decompress(truncated)
        if result == data:
            raise AssertionError("truncated stream decoded to original")
        raise CorruptStreamError("wrong output accepted for this test")


def test_ratio_convention():
    # 74.2 % ratio means compressed is ~4x smaller (paper's wording).
    assert compression_ratio(1000, 258) == pytest.approx(74.2)
    with pytest.raises(CompressionError):
        compression_ratio(0, 10)


def test_all_codecs_order_and_names():
    names = [codec.name for codec in all_codecs()]
    assert names == ["RLE", "LZ77", "Huffman", "X-MatchPRO",
                     "LZ78", "Zip", "7-zip"]


class TestRle:
    def test_long_run_uses_extension(self):
        data = b"\xAB\xCD\xEF\x01" * 10_000
        codec = RleCodec()
        compressed = codec.compress(data)
        assert len(compressed) < 300
        assert codec.decompress(compressed) == data

    def test_incompressible_overhead_bounded(self):
        data = random.Random(3).randbytes(4096)
        compressed = RleCodec().compress(data)
        # Literal records cost 1 control byte per 128 words.
        assert len(compressed) < len(data) * 1.02 + 16


class TestHuffman:
    def test_skewed_input_near_entropy(self):
        data = b"\x00" * 900 + b"\x01" * 100
        rnd = random.Random(5)
        data = bytes(rnd.sample(list(data), len(data)))
        compressed = HuffmanCodec().compress(data)
        payload = len(compressed) - 260  # minus header+table
        # Entropy is ~0.47 bits/byte -> payload well under 25 % of input.
        assert payload < len(data) // 4

    def test_single_symbol_input(self):
        data = b"z" * 500
        codec = HuffmanCodec()
        assert codec.decompress(codec.compress(data)) == data


class TestLz77:
    def test_window_bits_bound(self):
        with pytest.raises(ValueError):
            Lz77Codec(window_bits=3)
        with pytest.raises(ValueError):
            Lz77Codec(window_bits=17)

    def test_larger_window_reaches_distant_repeats(self):
        # A 2 KB block repeated: only the 12-bit window can see the
        # first copy from inside the second.
        rng = random.Random(9)
        block = bytes(rng.randrange(256) for _ in range(2048))
        data = block * 2
        small = Lz77Codec(window_bits=6).compress(data)
        large = Lz77Codec(window_bits=12).compress(data)
        assert len(large) < len(small) * 0.75

    def test_overlapping_copy(self):
        # A run longer than its offset forces self-overlapping copies.
        data = b"ab" * 1000
        codec = Lz77Codec()
        assert codec.decompress(codec.compress(data)) == data

    def test_match_past_declared_length_is_corrupt(self):
        # Declares 2 bytes, then a literal and an 18-byte match: the
        # decoder must not hand back 19 bytes.
        stream = struct.pack(">I", 2) + accel.bitpack(
            [0x61, (1 << 12) | 15], [9, 13])
        with pytest.raises(CorruptStreamError):
            Lz77Codec().decompress(stream)


class TestLz78:
    def test_dictionary_reset_still_roundtrips(self):
        codec = Lz78Codec(max_entries=64)
        rng = random.Random(11)
        data = bytes(rng.randrange(64) for _ in range(5000))
        assert codec.decompress(codec.compress(data)) == data

    def test_min_entries_enforced(self):
        with pytest.raises(ValueError):
            Lz78Codec(max_entries=1)


class TestXMatchPro:
    def test_dictionary_size_bounds(self):
        with pytest.raises(ValueError):
            XMatchProCodec(dictionary_size=1)
        with pytest.raises(ValueError):
            XMatchProCodec(dictionary_size=100)

    def test_zero_runs_dominant_input(self):
        data = b"\x00" * 40_000
        compressed = XMatchProCodec().compress(data)
        assert len(compressed) < 100

    def test_partial_matches_help(self):
        # Words differing in one byte: partial matches apply.
        words = bytes()
        rnd = random.Random(2)
        base = b"\x10\x20\x30"
        words = b"".join(base + bytes([rnd.randrange(256)])
                         for _ in range(2000))
        result = XMatchProCodec().measure(words)
        assert result.ratio_percent > 40.0

    def test_mask_codes_prefix_free(self):
        from repro.compress.xmatchpro import _MASK_CODES
        codes = [format(code, f"0{length}b")
                 for code, length in _MASK_CODES.values()]
        assert len(set(codes)) == len(codes)
        for first in codes:
            for second in codes:
                if first is not second:
                    assert not second.startswith(first)


class TestLzByteStage:
    # Declares 2 bytes, then a literal and a 14-byte match.
    OVERRUN = struct.pack(">I", 2) + bytes([0x40]) + b"a" + bytes([0, 0, 10])

    def test_match_past_declared_length_is_corrupt(self):
        with pytest.raises(CorruptStreamError):
            LzByteStage().decode(self.OVERRUN)

    def test_zip_match_past_declared_length_is_corrupt(self):
        with pytest.raises(CorruptStreamError):
            DeflateCodec().decompress(HuffmanCodec().compress(self.OVERRUN))

    @pytest.mark.parametrize("window", [0, 8, 1000, 3 << 10, 1 << 17])
    def test_window_must_be_a_power_of_two_in_range(self, window):
        for build in (LzByteStage, DeflateCodec, LzmaLikeCodec):
            with pytest.raises(ValueError):
                build(window=window)

    @pytest.mark.parametrize("window", [16, 1 << 16])
    def test_window_bounds_roundtrip(self, window):
        data = (bytes(range(200)) + b"a" * 1000) * 3
        for codec in (DeflateCodec(window=window),
                      LzmaLikeCodec(window=window)):
            assert codec.decompress(codec.compress(data)) == data


class TestPipelines:
    def test_deflate_beats_plain_huffman_on_bitstreams(self,
                                                       medium_bitstream):
        data = medium_bitstream.raw_bytes
        deflate = DeflateCodec().measure(data).ratio_percent
        huffman = HuffmanCodec().measure(data).ratio_percent
        assert deflate > huffman

    def test_lzma_like_beats_deflate_on_bitstreams(self, medium_bitstream):
        data = medium_bitstream.raw_bytes
        lzma = LzmaLikeCodec().measure(data).ratio_percent
        deflate = DeflateCodec().measure(data).ratio_percent
        assert lzma > deflate


class TestContainerPadding:
    def test_rle_ignores_trailing_padding(self):
        # The Manager word-aligns compressed payloads in BRAM; the
        # decoder must stop at the declared length (regression test).
        codec = RleCodec()
        data = b"\x11\x22\x33\x44" * 100 + b"xyz"
        compressed = codec.compress(data)
        for pad in (1, 2, 3, 7):
            assert codec.decompress(compressed + b"\x00" * pad) == data

    def test_xmatchpro_ignores_trailing_padding(self):
        codec = XMatchProCodec()
        data = b"\x00" * 64 + b"\xAB\xCD\xEF\x42" * 32
        compressed = codec.compress(data)
        for pad in (1, 3):
            assert codec.decompress(compressed + b"\x00" * pad) == data
