"""Hypothesis property tests: every codec is a lossless bijection on
its image, and the arithmetic-coder substrate is self-consistent."""

# The adaptive model is internal to the pure reference's arithmetic
# coder, so its invariants are checked on that class directly.
# repro-lint: disable=B804

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compress import (
    DeflateCodec,
    HuffmanCodec,
    Lz77Codec,
    Lz78Codec,
    LzmaLikeCodec,
    RleCodec,
    XMatchProCodec,
)
from repro import accel
from repro.accel.pure import AdaptiveModel

# LZ-ish payloads: random bytes mixed with repetitions, the worst and
# best cases for dictionary coders.
payloads = st.one_of(
    st.binary(max_size=2048),
    st.builds(
        lambda chunk, repeats, tail: chunk * repeats + tail,
        st.binary(min_size=1, max_size=64),
        st.integers(min_value=1, max_value=64),
        st.binary(max_size=32),
    ),
    st.builds(
        lambda chunks: b"".join(chunks),
        st.lists(st.sampled_from(
            [b"\x00\x00\x00\x00", b"\xDE\xAD\xBE\xEF",
             b"\x01\x02\x03\x04", b"\xFF"]), max_size=256),
    ),
)

slow = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@slow
@given(payloads)
def test_rle_roundtrip(data):
    codec = RleCodec()
    assert codec.decompress(codec.compress(data)) == data


@slow
@given(payloads)
def test_lz77_roundtrip(data):
    codec = Lz77Codec()
    assert codec.decompress(codec.compress(data)) == data


@slow
@given(payloads)
def test_lz78_roundtrip(data):
    codec = Lz78Codec()
    assert codec.decompress(codec.compress(data)) == data


@slow
@given(payloads)
def test_huffman_roundtrip(data):
    codec = HuffmanCodec()
    assert codec.decompress(codec.compress(data)) == data


@slow
@given(payloads)
def test_xmatchpro_roundtrip(data):
    codec = XMatchProCodec()
    assert codec.decompress(codec.compress(data)) == data


@slow
@given(payloads)
def test_deflate_roundtrip(data):
    codec = DeflateCodec()
    assert codec.decompress(codec.compress(data)) == data


@slow
@given(payloads)
def test_lzma_like_roundtrip(data):
    codec = LzmaLikeCodec()
    assert codec.decompress(codec.compress(data)) == data


#: Byte-LZ token layout of the 7-zip stand-in: literals are 9 bits
#: wide, matches carry ``offset - 1 << 8 | length - 4`` under the mask.
_MATCH_MASK = (1 << 24) - 1
_MATCH_FLAG = 1 << 24


def _token_stream(draws):
    """Valid ``(values, widths)`` tokens and the bytes they decode to."""
    values, widths, out = [], [], bytearray()
    for is_match, byte, offset_seed, extra in draws:
        if is_match and out:
            offset = 1 + offset_seed % min(len(out), 1 << 16)
            run = 4 + extra
            values.append(_MATCH_FLAG | (offset - 1) << 8 | extra)
            widths.append(25)
            for _ in range(run):
                out.append(out[-offset])  # may overlap itself
        else:
            values.append(byte)
            widths.append(9)
            out.append(byte)
    return values, widths, bytes(out)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=255),
                          st.integers(min_value=0, max_value=1 << 16),
                          st.integers(min_value=0, max_value=255)),
                max_size=800))
def test_arithmetic_coder_roundtrip(draws):
    values, widths, expected = _token_stream(draws)
    body = accel.lzma_pack(values, widths, _MATCH_MASK)
    assert accel.lzma_decode(body, len(expected)) == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                max_size=500))
def test_adaptive_model_invariants(updates):
    model = AdaptiveModel(16)
    for symbol in updates:
        model.update(symbol)
        assert model.total == model.cumulative(16)
        assert model.frequency(symbol) >= 1
    # Cumulative is monotone non-decreasing.
    sums = [model.cumulative(index) for index in range(17)]
    assert sums == sorted(sums)
