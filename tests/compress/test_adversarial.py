"""Adversarial codec vectors.

Hand-built inputs that hit the corner cases of each format: runs at
the exact extension boundaries, matches at window edges, dictionary
resets mid-phrase, arithmetic-coder renormalization storms.  These
complement the hypothesis tests with *targeted* stress.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

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
)
from repro.errors import CorruptStreamError
from repro.obs.profiling import Timer

ALL = [RleCodec(), Lz77Codec(), Lz78Codec(), HuffmanCodec(),
       XMatchProCodec(), DeflateCodec(), LzmaLikeCodec()]


def roundtrip(codec, data):
    assert codec.decompress(codec.compress(data)) == data


class TestRleBoundaries:
    # Base control byte encodes runs of 2..129; extensions chunk at 255.
    @pytest.mark.parametrize("run", [1, 2, 128, 129, 130, 129 + 255,
                                     129 + 255 + 1, 129 + 2 * 255 + 7])
    def test_exact_run_boundaries(self, run):
        roundtrip(RleCodec(), b"\xCA\xFE\xBA\xBE" * run)

    @pytest.mark.parametrize("literals", [1, 127, 128, 129, 256])
    def test_exact_literal_boundaries(self, literals):
        data = b"".join(index.to_bytes(4, "big")
                        for index in range(literals))
        roundtrip(RleCodec(), data)

    def test_run_then_literals_then_run(self):
        data = (b"\x00" * 400
                + b"".join(i.to_bytes(4, "big") for i in range(50))
                + b"\xFF" * 400)
        roundtrip(RleCodec(), data)


class TestLz77Boundaries:
    def test_match_at_exact_window_edge(self):
        codec = Lz77Codec(window_bits=8)  # 256-byte window
        block = bytes(range(64))
        # Repeat separated by exactly window-size bytes.
        data = block + bytes(256 - 64) + block
        roundtrip(codec, data)

    def test_max_length_match(self):
        codec = Lz77Codec(length_bits=4, min_match=3)  # max match 18
        data = b"abc" * 50  # forces chains of max-length copies
        roundtrip(codec, data)

    def test_minimum_match_exactly(self):
        codec = Lz77Codec(min_match=3)
        data = b"xyz" + b"." * 10 + b"xyz"
        roundtrip(codec, data)


class TestLz78Boundaries:
    @pytest.mark.parametrize("entries", [2, 3, 4, 16])
    def test_tiny_dictionaries_reset_constantly(self, entries):
        codec = Lz78Codec(max_entries=entries)
        data = bytes(range(100)) * 5
        roundtrip(codec, data)

    def test_input_ends_exactly_on_phrase(self):
        codec = Lz78Codec()
        # 'ab' is in the dictionary when the stream ends with 'ab'.
        roundtrip(codec, b"aababab")


class TestXMatchProBoundaries:
    def test_zero_run_at_chunk_boundary(self):
        # Chunk counter emits 255-word chunks.
        for run in (254, 255, 256, 510, 511):
            roundtrip(XMatchProCodec(), b"\x00\x00\x00\x00" * run)

    def test_dictionary_eviction_cycle(self):
        codec = XMatchProCodec(dictionary_size=2)
        words = b"".join(bytes([i, i, i, i]) for i in range(1, 50))
        roundtrip(codec, words * 2)

    def test_alternating_hit_miss(self):
        codec = XMatchProCodec(dictionary_size=4)
        a, b = b"\x01\x02\x03\x04", b"\x99\x88\x77\x66"
        roundtrip(codec, (a + b) * 200)

    def test_partial_match_every_mask(self):
        # Words sharing exactly 2 or 3 bytes with a resident entry.
        base = b"\x10\x20\x30\x40"
        variants = [
            b"\xFF\x20\x30\x40", b"\x10\xFF\x30\x40",
            b"\x10\x20\xFF\x40", b"\x10\x20\x30\xFF",
            b"\xFF\xFF\x30\x40", b"\x10\x20\xFF\xFF",
            b"\xFF\x20\xFF\x40", b"\x10\xFF\x30\xFF",
            b"\xFF\x20\x30\xFF", b"\x10\xFF\xFF\x40",
        ]
        roundtrip(XMatchProCodec(), base + b"".join(variants))


class TestArithmeticStress:
    def test_long_run_of_most_probable_symbol(self):
        # Drives the encoder into long carry/pending-bit chains.
        roundtrip(LzmaLikeCodec(), b"\x00" * 50_000)

    def test_alternating_bits_resist_modelling(self):
        roundtrip(LzmaLikeCodec(), bytes(i & 0xFF for i in range(9973)))

    def test_model_halving_boundary(self):
        # Enough repeated symbols to trigger count halving (total 2^16).
        roundtrip(LzmaLikeCodec(), b"A" * 3000 + b"B" * 3000)

    @pytest.mark.parametrize("backend", accel.available_backends())
    @pytest.mark.parametrize("declared", [1_000_000, 0xFFFFFFFF])
    def test_decoder_work_is_bounded_by_its_input(self, backend,
                                                   declared):
        # Past the end of the body the decoder reads the encoder's
        # implicit trailing zeros, which a valid stream needs fewer
        # than 32 of.  Unbounded, a bare header declaring 1 MB decoded
        # zero-bit literals for seconds before it overran the length.
        with accel.using(backend), Timer() as timer:
            with pytest.raises(CorruptStreamError,
                               match="arithmetic code stream exhausted"):
                LzmaLikeCodec().decompress(struct.pack(">I", declared))
        assert timer.elapsed_s < 0.050


def _failure(codec, stream):
    """``(exception type, message)`` of decoding ``stream``, or None."""
    try:
        codec.decompress(stream)
    except (CorruptStreamError, MemoryError) as error:
        return type(error), str(error)
    return None


@pytest.mark.parametrize("backend", accel.available_backends())
@pytest.mark.parametrize("declared", [0xFFFFFFFF, 0x7FFFFFFF])
@pytest.mark.parametrize("codec", ALL, ids=lambda c: c.name)
def test_declared_length_does_not_size_the_decoder(codec, declared,
                                                   backend):
    # Native decoders once reserved the declared length before reading
    # the body: 4 GiB for a patched header, a MemoryError where pure
    # raises CorruptStreamError.  Work and memory must follow the body,
    # so the corrupt stream fails as pure fails, in about the time the
    # valid stream takes to decode (pure's 7-zip decoder alone needs
    # some 55 ms for these 2 KB on a 2-vCPU host).
    stream = codec.compress(bytes(range(256)) * 8)
    patched = struct.pack(">I", declared) + stream[4:]
    with accel.using("pure"):
        want = _failure(codec, patched)
    assert want is not None and want[0] is CorruptStreamError
    with accel.using(backend):
        with Timer() as valid:
            codec.decompress(stream)
        with Timer() as timer:
            got = _failure(codec, patched)
    assert got == want
    assert timer.elapsed_s < valid.elapsed_s + 0.050


# -- the decoder oracle, on the golden model -------------------------
# Hostile streams derived from valid ones: a flipped bit, a truncation,
# trailing bytes, or the head of one stream on the tail of another.
# Whatever the damage, pure's decoder returns exactly the length its
# stream declares or raises CorruptStreamError; it never raises
# anything else.  The native backend is held to pure by the
# equivalence suite, so this holds for it too.

_payloads = st.one_of(
    st.binary(max_size=192),
    st.builds(lambda chunk, repeats: chunk * repeats,
              st.binary(min_size=1, max_size=16),
              st.integers(min_value=1, max_value=24)),
)
_damage = st.tuples(
    st.sampled_from(["flip", "truncate", "extend", "splice"]),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=1 << 16),
    st.binary(min_size=1, max_size=8),
)


def _damaged(stream, other, damage):
    kind, position, tail, extra = damage
    if kind == "flip":
        index = position % (8 * len(stream))
        flipped = bytearray(stream)
        flipped[index >> 3] ^= 0x80 >> (index & 7)
        return bytes(flipped)
    if kind == "truncate":
        return stream[:position % (len(stream) + 1)]
    if kind == "extend":
        return stream + extra
    return (stream[:position % (len(stream) + 1)]
            + other[tail % (len(other) + 1):])


def _declared_length(codec, stream):
    # Zip's outer Huffman stream wraps the byte-LZ stream, whose header
    # declares the output.
    if isinstance(codec, DeflateCodec):
        stream = HuffmanCodec().decompress(stream)
    return struct.unpack_from(">I", stream)[0]


@pytest.mark.parametrize("codec", ALL, ids=lambda c: c.name)
@seed(2012)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_payloads, other=_payloads, damage=_damage)
def test_pure_decoder_returns_declared_length_or_corrupt(codec, data,
                                                         other, damage):
    with accel.using("pure"):
        stream = _damaged(codec.compress(data), codec.compress(other),
                          damage)
        try:
            out = codec.decompress(stream)
        except CorruptStreamError:
            return
        assert len(out) == _declared_length(codec, stream)


class TestDeflateStress:
    def test_match_self_overlap_long(self):
        roundtrip(DeflateCodec(), b"ab" * 10_000)

    def test_incompressible_then_compressible(self):
        import random
        rng = random.Random(13)
        data = rng.randbytes(4096) + b"\x00" * 4096
        roundtrip(DeflateCodec(), data)


@pytest.mark.parametrize("codec", ALL, ids=lambda c: c.name)
def test_all_byte_values_in_order(codec):
    roundtrip(codec, bytes(range(256)) * 3)


@pytest.mark.parametrize("codec", ALL, ids=lambda c: c.name)
def test_sizes_straddling_word_alignment(codec):
    for size in (1023, 1024, 1025, 1026, 1027):
        roundtrip(codec, (b"\x42\x00\x17\x00" * 300)[:size])
