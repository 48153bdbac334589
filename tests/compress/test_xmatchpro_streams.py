"""X-MatchPRO stream-level tests: run boundaries, corruption, format.

The zero-run token uses a chunked 8-bit counter where ``0xFF`` means
"255 and continue" — runs of exactly 255/256 (and 510/511) tuples sit
on the chunk boundary and exercise both the single-chunk maximum and
the continuation path.  The corrupt-stream tests drive every decoder
error branch with hand-crafted bit streams.  The pinned digests at the
bottom freeze the on-wire format: any change to token layout, mask
codes or run chunking shows up as a digest mismatch, not as a silent
compatibility break with previously written streams.
"""

from __future__ import annotations

import hashlib
import random
import struct

import pytest

from repro.accel import bitpack
from repro.compress.xmatchpro import XMatchProCodec
from repro.errors import CorruptStreamError

ZERO_TUPLE = b"\x00" * 4


@pytest.fixture
def codec():
    return XMatchProCodec()


# -- zero-run chunk boundaries ----------------------------------------

@pytest.mark.parametrize("run", [1, 2, 254, 255, 256, 257,
                                 509, 510, 511, 512, 765, 766])
def test_pure_zero_run_boundaries(codec, run):
    data = ZERO_TUPLE * run
    assert codec.decompress(codec.compress(data)) == data


@pytest.mark.parametrize("run", [254, 255, 256, 510, 511])
def test_zero_run_boundary_between_literals(codec, run):
    """Chunk-boundary runs embedded in non-zero traffic."""
    data = b"\xde\xad\xbe\xef" + ZERO_TUPLE * run + b"\xca\xfe\xba\xbe"
    assert codec.decompress(codec.compress(data)) == data


def test_run_of_255_uses_continuation_chunk(codec):
    """255 == chunk max, so the counter emits 0xFF + 0x00 — one more
    chunk than a run of 254.  The decode still sees one run."""
    shorter = codec.compress(ZERO_TUPLE * 254)
    boundary = codec.compress(ZERO_TUPLE * 255)
    assert len(boundary) >= len(shorter)
    assert codec.decompress(boundary) == ZERO_TUPLE * 255


def test_adjacent_runs_with_separator_roundtrip(codec):
    data = (ZERO_TUPLE * 255 + b"\x01\x02\x03\x04"
            + ZERO_TUPLE * 256 + b"\x05\x06\x07\x08"
            + ZERO_TUPLE * 3)
    assert codec.decompress(codec.compress(data)) == data


def test_zero_run_with_unaligned_tail(codec):
    data = ZERO_TUPLE * 256 + b"\x00\x00"  # tail shorter than a tuple
    assert codec.decompress(codec.compress(data)) == data


# -- corrupt streams ---------------------------------------------------

def _stream(original_length, *tokens, tail=b""):
    """Assemble a raw X-MatchPRO stream from header parts + tokens.

    Each token is a ``(value, width)`` pair, packed MSB first.
    """
    header = struct.pack(">I", original_length) + bytes([len(tail)]) + tail
    values = [value for value, _width in tokens]
    widths = [width for _value, width in tokens]
    return header + bitpack(values, widths)


def test_truncated_header_rejected(codec):
    for length in range(5):
        with pytest.raises(CorruptStreamError):
            codec.decompress(b"\x00" * length)


def test_invalid_tail_length_rejected(codec):
    blob = struct.pack(">I", 8) + bytes([7]) + b"\x00" * 7
    with pytest.raises(CorruptStreamError):
        codec.decompress(blob)


def test_truncated_tail_rejected(codec):
    blob = struct.pack(">I", 3) + bytes([3]) + b"\x00"  # claims 3, has 1
    with pytest.raises(CorruptStreamError):
        codec.decompress(blob)


def test_zero_length_zero_run_rejected(codec):
    blob = _stream(4,
                   (0b10, 2),          # zero-run prefix
                   (0, 8))             # run counter 0: invalid
    with pytest.raises(CorruptStreamError, match="zero-length"):
        codec.decompress(blob)


def test_match_against_empty_dictionary_rejected(codec):
    blob = _stream(4, (0, 1))   # match prefix with nothing inserted yet
    with pytest.raises(CorruptStreamError, match="empty dictionary"):
        codec.decompress(blob)


def test_dictionary_location_out_of_range_rejected(codec):
    blob = _stream(8,
                   (0b11, 2),          # miss: insert one word
                   (0xDEADBEEF, 32),
                   (0, 1),             # match prefix
                   (1, 1),             # location 1, size-1 dict
                   (0, 1))             # full-match mask
    with pytest.raises(CorruptStreamError, match="out of range"):
        codec.decompress(blob)


def test_invalid_match_type_code_rejected(codec):
    blob = _stream(8,
                   (0b11, 2),          # miss: insert one word
                   (0xDEADBEEF, 32),
                   (0, 1),             # match prefix
                   (0, 1),             # location 0
                   (0b11, 2),          # mask class '11'
                   (7, 3))             # selector 7: only 0-5 valid
    with pytest.raises(CorruptStreamError, match="match-type"):
        codec.decompress(blob)


def test_truncated_token_stream_rejected(codec):
    """Stream ends mid-token: the reader must fail, not fabricate."""
    good = codec.compress(b"\xde\xad\xbe\xef" * 16)
    with pytest.raises(CorruptStreamError):
        codec.decompress(good[:-2])


def test_oversized_length_header_rejected(codec):
    """Header claims more data than the token stream encodes."""
    good = codec.compress(ZERO_TUPLE * 4)
    inflated = struct.pack(">I", 4 * 4 + 400) + good[4:]
    with pytest.raises(CorruptStreamError):
        codec.decompress(inflated)


def test_corruption_never_roundtrips_silently(codec):
    """Flipping any byte either raises or changes the output."""
    data = b"\xde\xad\xbe\xef" * 8 + ZERO_TUPLE * 300
    good = codec.compress(data)
    for position in range(5, len(good), 7):
        corrupted = bytearray(good)
        corrupted[position] ^= 0xFF
        try:
            decoded = codec.decompress(bytes(corrupted))
        except CorruptStreamError:
            continue
        assert decoded != data or bytes(corrupted) == good


# -- pinned stream format ----------------------------------------------

#: SHA-256 of ``compress()`` output for fixed inputs.  These freeze
#: the on-wire format (token layout, mask codes, run chunking); a
#: digest change means streams compressed before it no longer decode,
#: so change them only with the format, on purpose.
GOLDEN_DIGESTS = {
    "random4k":
        "350f951d8a038e56ca1aae9c93133b72cecb5abe6e065e91a66b5fcaf598b231",
    "zeros255":
        "101d474577a819de622d2359796496b167d6dc69dc21cfd2a519a02528a87d7f",
    "zeros256":
        "acd8fbb6417b99c4c2b4dc54dc21533035bbd3b714c3b4c3255f78d8f62321aa",
    "mixed":
        "9558533cf11056d683a3d2d14d3fcb94240176b3dcee1bbd1e0d281a6de02ed2",
    "bitstream16k":
        "6c735092d2155d2baed2697b555f6e4b630371cc9258a2023fa9634afc2d5635",
}


def _golden_samples():
    from repro.bitstream.generator import generate_bitstream
    from repro.units import DataSize
    rng = random.Random(7)
    return {
        "random4k": bytes(rng.randrange(256) for _ in range(4096)),
        "zeros255": ZERO_TUPLE * 255,
        "zeros256": ZERO_TUPLE * 256,
        "mixed": (b"\xde\xad\xbe\xef" * 10 + b"\x00" * (511 * 4)
                  + bytes(rng.randrange(256) for _ in range(401))),
        "bitstream16k":
            generate_bitstream(size=DataSize.from_kb(16)).raw_bytes,
    }


def test_compressed_stream_format_is_pinned(codec):
    samples = _golden_samples()
    for name, digest in sorted(GOLDEN_DIGESTS.items()):
        compressed = codec.compress(samples[name])
        assert codec.decompress(compressed) == samples[name]
        assert hashlib.sha256(compressed).hexdigest() == digest, name
