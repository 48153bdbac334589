"""Cross-backend equivalence: the native backend is byte-identical to pure.

The pure backend is the semantic reference; these property tests pin
the native backend (when the compiled extension is built) to it
bit-for-bit on randomised inputs.  Native kernels delegate to pure
below their size crossovers, so the fixture zeroes every threshold —
each case exercises the C code even on hypothesis-sized payloads.
Without the extension every case skips, so the suite degrades cleanly
on a base install.
"""

# The equivalence suite is the one place that must reach the backend
# modules directly instead of going through the dispatch facade.
# repro-lint: disable=B804

import hashlib
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import accel
from repro.accel import pure
from repro.accel.plan import SynthesisPlan
from repro.bitstream.generator import (
    BitstreamSpec,
    _FrameSynthesizer,
    generate_bitstream,
)
from repro.errors import CorruptStreamError
from repro.units import DataSize


@pytest.fixture(autouse=True, params=["native"])
def vectorised(request, monkeypatch):
    """The native backend with every delegation threshold removed."""
    if not accel.native_available():
        pytest.skip("native extension not built")
    from repro.accel import native_backend as backend
    for attribute in dir(backend):
        if attribute.startswith("_") and "_MIN_" in attribute \
                and isinstance(getattr(backend, attribute), int):
            monkeypatch.setattr(backend, attribute, 0)
    # Compare the C planner itself even where its import-time
    # self-check sent it to pure: a mismatch then fails here with a
    # shrunk example instead of passing as pure against pure.
    monkeypatch.setattr(backend, "_PLANNER_MATCHES_PURE", True)
    return backend


# function_scoped_fixture is deliberate: the thresholds stay patched
# for every example and the patch carries no per-example state.
quick = settings(max_examples=60, deadline=None,
                 suppress_health_check=[
                     HealthCheck.too_slow,
                     HealthCheck.function_scoped_fixture,
                 ])

# Word-run-structured payloads — the shape every kernel actually sees.
words = st.one_of(
    st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
             max_size=300),
    st.builds(
        lambda runs: [word for word, length in runs
                      for _ in range(length)],
        st.lists(st.tuples(
            st.sampled_from([0, 0xDEADBEEF, 0x01020304, 0xFFFFFFFF]),
            st.integers(min_value=1, max_value=40)), max_size=40),
    ),
)


@quick
@given(st.binary(max_size=4096), st.integers(min_value=0,
                                             max_value=0xFFFFFFFF))
def test_crc32c_matches(vectorised, data, crc):
    assert vectorised.crc32c(data, crc) == pure.crc32c(data, crc)


@quick
@given(st.lists(st.binary(max_size=512), max_size=8))
def test_crc32c_chaining_matches(vectorised, chunks):
    crc_np = crc_py = 0
    for chunk in chunks:
        crc_np = vectorised.crc32c(chunk, crc_np)
        crc_py = pure.crc32c(chunk, crc_py)
    assert crc_np == crc_py


@quick
@given(words)
def test_word_packing_matches(vectorised, values):
    packed = pure.words_to_bytes(values)
    assert vectorised.words_to_bytes(values) == packed
    assert vectorised.bytes_to_words(packed) == values


@quick
@given(words)
def test_equal_word_runs_match(vectorised, values):
    data = pure.words_to_bytes(values)
    runs = vectorised.equal_word_runs(data, len(values))
    assert runs == pure.equal_word_runs(data, len(values))
    assert sum(runs) == len(values)


@quick
@given(words, st.binary(max_size=3))
def test_zero_word_runs_match(vectorised, values, tail):
    # A ragged tail must not perturb the word-aligned scan.
    data = pure.words_to_bytes(values) + tail
    assert vectorised.zero_word_runs(data, len(values)) == \
        pure.zero_word_runs(data, len(values))


@quick
@given(st.binary(min_size=8, max_size=2048), st.data())
def test_match_lengths_match(vectorised, data, draw):
    position = draw.draw(st.integers(min_value=1, max_value=len(data) - 1))
    # Callers clamp limit so the match window stays inside the data
    # (``min(max_match, len(data) - position)`` in the LZ codecs).
    limit = draw.draw(st.integers(min_value=1,
                                  max_value=len(data) - position))
    candidates = draw.draw(st.lists(
        st.integers(min_value=0, max_value=position - 1),
        min_size=1, max_size=16))
    assert vectorised.match_lengths(data, candidates, position, limit) \
        == pure.match_lengths(data, candidates, position, limit)


@quick
@given(words, st.integers(min_value=0, max_value=8),
       st.integers(min_value=1, max_value=41))
def test_chunk_words_match(vectorised, block, offset, frame_words):
    offset = min(offset, len(block))
    assert vectorised.chunk_words(block, offset, frame_words) == \
        pure.chunk_words(block, offset, frame_words)


@quick
@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=0xFFFFFFFF),
                          st.integers(min_value=0, max_value=30)),
                max_size=60),
       st.integers(min_value=1, max_value=41),
       st.integers(min_value=0, max_value=4))
def test_synthesize_payload_matches(vectorised, ops, frame_words, chain):
    plan = SynthesisPlan(frame_words)
    for is_copy, value, length in ops:
        # Copies are only meaningful once a previous frame exists.
        if is_copy and plan.total_words >= frame_words:
            plan.copy_previous(min(length, frame_words))
        else:
            plan.fill(value, length)
    if plan.total_words >= frame_words:
        # Copy-of-copy chain: whole frames copied from frames that
        # were themselves copied.
        for _ in range(chain):
            plan.copy_previous(frame_words)
    assert vectorised.synthesize_payload(plan) == \
        pure.synthesize_payload(plan)


def _plan(frame_words, ops):
    plan = SynthesisPlan(frame_words)
    for kind, value, length in ops:
        if kind == "copy":
            plan.copy_previous(length)
        else:
            plan.fill(value, length)
    return plan


def test_synthesize_payload_boundaries(vectorised):
    cases = (
        _plan(4, []),                                    # empty
        _plan(4, [("fill", 7, 1)]),                      # one word
        # Copy-of-copy chain: every frame after the first copies the
        # previous frame, which is itself a copy.
        _plan(5, [("fill", 0xA5A5A5A5, 3), ("fill", 1, 2)]
              + [("copy", 0, 5)] * 6),
        # Partial copies interleaved with fills inside one frame.
        _plan(6, [("fill", 9, 6), ("copy", 0, 2), ("fill", 3, 1),
                  ("copy", 0, 3), ("copy", 0, 6)]),
        # A COPY before the first frame exists reads before the start
        # of the output: pure's slice rules apply.
        _plan(8, [("copy", 0, 3), ("fill", 2, 8), ("copy", 0, 8)]),
        # A COPY longer than a frame takes one frame, like the slice.
        _plan(3, [("fill", 4, 3), ("copy", 0, 7), ("fill", 5, 2)]),
    )
    for plan in cases:
        assert vectorised.synthesize_payload(plan) == \
            pure.synthesize_payload(plan)


def test_generator_digest_identical_across_backends(vectorised):
    digests = set()
    for name in accel.available_backends():
        with accel.using(name):
            blob = generate_bitstream(size=DataSize.from_kb(16),
                                      seed=2012).file_bytes
        digests.add(hashlib.sha256(blob).hexdigest())
    assert len(digests) == 1


# -- frame planner ------------------------------------------------------

# Mixture weights as small integer shares (zeros included), normalised
# so they sum to 1 within the spec's tolerance.
weight_shares = st.lists(st.integers(min_value=0, max_value=6),
                         min_size=5, max_size=5).filter(any)
run_means = st.one_of(st.just(1.0),
                      st.floats(min_value=1.0, max_value=12.0))


@st.composite
def planner_specs(draw):
    shares = draw(weight_shares)
    total = sum(shares)
    zero, motif, copy, sparse, dense = (share / total for share in shares)
    return BitstreamSpec(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        utilization=draw(st.one_of(st.just(0.0), st.just(1.0),
                                   st.floats(min_value=0.0,
                                             max_value=1.0))),
        motif_pool=draw(st.sampled_from([1, 3, 5, 7, 8])),
        zero_run_weight=zero, motif_run_weight=motif, copy_weight=copy,
        sparse_weight=sparse, dense_weight=dense,
        zero_run_mean=draw(run_means), motif_run_mean=draw(run_means),
        copy_run_mean=draw(run_means))


def _assert_same_plans(vectorised, spec, frame_counts):
    """Plan successive calls both ways from twin synthesizers."""
    reference = _FrameSynthesizer(spec)
    candidate = _FrameSynthesizer(spec)
    have_previous = False
    for frame_count in frame_counts:
        want = pure.plan_frames(reference._rng, reference._mixture,
                                frame_count, have_previous)
        got = vectorised.plan_frames(candidate._rng, candidate._mixture,
                                     frame_count, have_previous)
        assert (got.kinds, got.values, got.lengths, got.total_words) == \
            (want.kinds, want.values, want.lengths, want.total_words)
        assert candidate._rng.getstate() == reference._rng.getstate()
        have_previous = have_previous or frame_count > 0


@quick
@given(planner_specs(), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=6))
def test_plan_frames_matches(vectorised, spec, first, second):
    # Two calls on one synthesizer: the second carries the RNG and
    # the previous frame a COPY reads from.
    _assert_same_plans(vectorised, spec, (first, second))


@pytest.mark.parametrize("motif_pool", [1, 3, 5, 7])
@pytest.mark.parametrize("utilization", [0.0, 1.0])
def test_plan_frames_boundaries(vectorised, motif_pool, utilization):
    # motif_pool 3, 5 and 7 make _randbelow reject and redraw; run
    # means of exactly 1.0 take the branches that draw no length.
    specs = (
        BitstreamSpec(motif_pool=motif_pool, utilization=utilization),
        BitstreamSpec(motif_pool=motif_pool, utilization=utilization,
                      zero_run_mean=1.0, motif_run_mean=1.0,
                      copy_run_mean=1.0),
        BitstreamSpec(motif_pool=motif_pool, utilization=utilization,
                      zero_run_weight=0.0, motif_run_weight=0.5,
                      copy_weight=0.0, sparse_weight=0.0,
                      dense_weight=0.5),
    )
    for spec in specs:
        _assert_same_plans(vectorised, spec, (1,))
        _assert_same_plans(vectorised, spec, (1, 1, 40))


# Lookup-table doubles: the special values make random() * total land
# exactly on a cum entry (total 0 or inf), where < and <= part ways.
table_doubles = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, float("inf"), float("-inf"),
                     float("nan")]),
    st.floats(width=64))


def _texture_only(byte_pool, cum_weights, cum_total):
    base = _FrameSynthesizer(BitstreamSpec())._mixture
    return base._replace(
        utilization=1.0, zero_threshold=0.0, motif_threshold=0.0,
        copy_threshold=0.0, sparse_threshold=1.0,
        byte_pool=tuple(byte_pool), cum_weights=tuple(cum_weights),
        cum_total=cum_total)


def _assert_same_texture(vectorised, mixture, seed):
    reference, candidate = Random(seed), Random(seed)
    for have_previous in (False, True):
        want = pure.plan_frames(reference, mixture, 2, have_previous)
        got = vectorised.plan_frames(candidate, mixture, 2, have_previous)
        assert got.values == want.values
        assert candidate.getstate() == reference.getstate()


@pytest.mark.parametrize("pool", [(11, 22, 33, 44), (11, 22, 33, 44, 55)])
@pytest.mark.parametrize("cum,total", [
    ((-1.0, 0.0, 0.0, 1.0), 0.0),         # x hits a run of entries
    ((0.0, 0.5, 1.0, 1.0), 1.0),          # x = total hits the last two
    ((0.25, 0.5, 0.75, 1.0), float("nan")),
    ((0.25, 0.5, 0.75, float("inf")), float("inf")),
    ((1.0, 0.0, 0.0, 0.5), 0.0),          # unsorted: pure's probes
])
def test_plan_frames_texture_lookup_boundaries(vectorised, pool, cum,
                                               total):
    # x = random() * total equals a cum entry on many draws here,
    # where "x < cum" and "x <= cum" part ways; the two pool sizes
    # search an even and an odd prefix of cum.
    _assert_same_texture(vectorised, _texture_only(pool, cum, total),
                         seed=5)


@quick
@given(st.lists(table_doubles, min_size=1, max_size=24), st.booleans(),
       table_doubles, st.data())
def test_plan_frames_texture_lookup_matches(vectorised, cum, ascending,
                                            total, data):
    # Texture words only, over byte tables no spec produces: cum
    # repeated, infinite, NaN or unsorted, pools of one byte up to
    # len(cum) + 1.  The C planner counts over an ascending cum and
    # hands any other table to pure; either way the byte is pure's.
    if ascending:
        cum = sorted(cum)
    pool = data.draw(st.lists(st.integers(min_value=1, max_value=255),
                              min_size=1, max_size=len(cum) + 1))
    _assert_same_texture(vectorised, _texture_only(pool, cum, total),
                         seed=data.draw(st.integers(min_value=0,
                                                    max_value=2**32)))


def test_plan_frames_full_payload(vectorised):
    # The 216.5 KB mode-ii payload: 1,351 frames in one call, past
    # several MT19937 regenerations of the 624-word key.
    _assert_same_plans(vectorised, BitstreamSpec(seed=2019), (1351,))


# -- compressor-stack kernels ------------------------------------------

# (value, width) token streams as the codecs emit them: widths up to
# the 58-bit ceiling of the X-MatchPRO zero-run chunks, values always
# fitting their width.
tokens = st.lists(
    st.tuples(st.integers(min_value=0, max_value=58),
              st.integers(min_value=0, max_value=(1 << 58) - 1)),
    max_size=200,
).map(lambda pairs: (
    [value & ((1 << width) - 1) for width, value in pairs],
    [width for width, _ in pairs],
))


@quick
@given(tokens)
def test_bitpack_matches(vectorised, stream):
    values, widths = stream
    assert vectorised.bitpack(values, widths) == \
        pure.bitpack(values, widths)


def test_bitpack_boundaries(vectorised):
    assert vectorised.bitpack([], []) == pure.bitpack([], []) == b""
    assert vectorised.bitpack([1], [1]) == pure.bitpack([1], [1])
    assert vectorised.bitpack([0], [0]) == pure.bitpack([0], [0]) == b""
    # Width-skewed stream: one huge token between many tiny ones.
    values = [1, (1 << 58) - 1, 0, 3]
    widths = [1, 58, 7, 2]
    assert vectorised.bitpack(values, widths) == pure.bitpack(values,
                                                              widths)


@quick
@given(words, st.binary(max_size=3),
       st.integers(min_value=2, max_value=64))
def test_xmatch_tokens_match(vectorised, values, tail, capacity):
    data = pure.words_to_bytes(values) + tail
    got = vectorised.xmatch_tokens(data, len(values), capacity)
    want = pure.xmatch_tokens(data, len(values), capacity)
    assert got == want


def test_xmatch_tokens_boundaries(vectorised):
    for data in (b"", b"\x00" * 64, b"\xAB\xCD\xEF\x01" * 16):
        got = vectorised.xmatch_tokens(data, len(data) // 4, 8)
        want = pure.xmatch_tokens(data, len(data) // 4, 8)
        assert got == want


@quick
@given(st.binary(max_size=2048),
       st.integers(min_value=4, max_value=12),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=16))
def test_lz77_tokens_match(vectorised, data, window_bits, length_bits,
                           min_match, max_chain):
    got = vectorised.lz77_tokens(data, window_bits, length_bits,
                                 min_match, max_chain)
    want = pure.lz77_tokens(data, window_bits, length_bits,
                            min_match, max_chain)
    assert got == want


def test_lz77_tokens_boundaries(vectorised):
    for data in (b"", b"\x42", b"\x00" * 512, bytes(range(256)) * 4):
        assert vectorised.lz77_tokens(data, 8, 4, 3, 8) == \
            pure.lz77_tokens(data, 8, 4, 3, 8)


@quick
@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=256, max_size=256))
def test_huffman_code_table_matches(vectorised, histogram):
    if not any(histogram):
        histogram[0] = 1  # at least one symbol present
    assert vectorised.huffman_code_table(histogram) == \
        pure.huffman_code_table(histogram)


@quick
@given(st.binary(min_size=1, max_size=2048))
def test_huffman_pack_matches(vectorised, data):
    histogram = [0] * 256
    for byte in data:
        histogram[byte] += 1
    codes, lengths = pure.huffman_code_table(histogram)
    assert vectorised.huffman_pack(data, codes, lengths) == \
        pure.huffman_pack(data, codes, lengths)


def test_huffman_pack_boundaries(vectorised):
    for data in (b"\x00", b"\x00" * 300, bytes(range(256))):
        histogram = [0] * 256
        for byte in data:
            histogram[byte] += 1
        codes, lengths = pure.huffman_code_table(histogram)
        assert vectorised.huffman_pack(data, codes, lengths) == \
            pure.huffman_pack(data, codes, lengths)


# Runs at the RLE record-format edges: a 3-word run (control 0x81),
# the 129-word base ceiling, runs long enough for 0xFF extension
# bytes (>= 129 + 255), and lone-word stretches that fill a literal
# record of exactly 128 words or spill one past it.
rle_runs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=0xFFFFFFFF),
              st.sampled_from([1, 2, 3, 127, 128, 129, 130, 383, 384,
                               385, 700]),
              st.booleans()),
    max_size=8,
).map(lambda runs: [(word + offset) & 0xFFFFFFFF if distinct else word
                    for word, length, distinct in runs
                    for offset in range(length)])


@quick
@given(st.one_of(words, rle_runs), st.binary(max_size=3))
def test_rle_records_match(vectorised, values, tail):
    data = pure.words_to_bytes(values) + tail
    assert vectorised.rle_records(data, len(values)) == \
        pure.rle_records(data, len(values))


def test_rle_records_boundaries(vectorised):
    distinct = b"".join(index.to_bytes(4, "big") for index in range(129))
    cases = (
        b"",                          # empty
        b"\x01\x02\x03\x04",          # single word
        b"\xAA\xBB\xCC\xDD" * 200,    # one long all-equal run
        b"\x00\x00\x00\x00" * 129,    # exactly the base-run ceiling
        b"\x01\x02\x03\x04" * 3,      # a 0x81 base run
        b"\x05\x06\x07\x08" * 700,    # 0xFF extension bytes
        distinct[:512],               # a literal block of exactly 128
        distinct,                     # 128 literals plus one more
    )
    for data in cases:
        assert vectorised.rle_records(data, len(data) // 4) == \
            pure.rle_records(data, len(data) // 4)


# -- bit-serial decoders ------------------------------------------------
#
# Two properties per decoder: on well-formed streams (kernel-encoded
# round trips) the backend output is byte-identical to pure, and on
# *arbitrary* bodies the backend either returns pure's bytes or raises
# CorruptStreamError with pure's exact message — the decoders' error
# points are part of the stream contract (the codec corruption tests
# pin the messages), so a backend may not fail sooner, later, or with
# different words.


def _agree_with_pure(vectorised, kernel, *args):
    try:
        want, want_error = getattr(pure, kernel)(*args), None
    except CorruptStreamError as error:
        want, want_error = None, str(error)
    try:
        got, got_error = getattr(vectorised, kernel)(*args), None
    except CorruptStreamError as error:
        got, got_error = None, str(error)
    assert got_error == want_error
    assert got == want


@quick
@given(words, st.integers(min_value=2, max_value=64))
def test_xmatch_decode_roundtrip_matches(vectorised, values, capacity):
    data = pure.words_to_bytes(values)
    body = pure.bitpack(*pure.xmatch_tokens(data, len(values), capacity))
    got = vectorised.xmatch_decode(body, len(data), capacity)
    assert got == pure.xmatch_decode(body, len(data), capacity)
    assert got == data


@quick
@given(st.binary(max_size=512), st.integers(min_value=0, max_value=512),
       st.integers(min_value=2, max_value=64))
def test_xmatch_decode_corrupt_parity(vectorised, body, output_length,
                                      capacity):
    _agree_with_pure(vectorised, "xmatch_decode",
                     body, output_length * 4, capacity)


@quick
@given(st.binary(max_size=2048),
       st.integers(min_value=4, max_value=12),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=5))
def test_lz77_decode_roundtrip_matches(vectorised, data, window_bits,
                                       length_bits, min_match):
    body = pure.bitpack(*pure.lz77_tokens(data, window_bits,
                                          length_bits, min_match, 8))
    got = vectorised.lz77_decode(body, len(data), window_bits,
                                 length_bits, min_match)
    assert got == pure.lz77_decode(body, len(data), window_bits,
                                   length_bits, min_match)
    assert got == data


@quick
@given(st.binary(max_size=512), st.integers(min_value=0, max_value=4096),
       st.integers(min_value=4, max_value=12),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=5))
def test_lz77_decode_corrupt_parity(vectorised, body, output_length,
                                    window_bits, length_bits, min_match):
    _agree_with_pure(vectorised, "lz77_decode", body, output_length,
                     window_bits, length_bits, min_match)


@quick
@given(st.binary(min_size=1, max_size=2048))
def test_huffman_decode_roundtrip_matches(vectorised, data):
    histogram = [0] * 256
    for byte in data:
        histogram[byte] += 1
    codes, lengths = pure.huffman_code_table(histogram)
    body = pure.huffman_pack(data, codes, lengths)
    table = bytes(lengths)
    got = vectorised.huffman_decode(body, len(data), table)
    assert got == pure.huffman_decode(body, len(data), table)
    assert got == data


@quick
@given(st.binary(max_size=512), st.integers(min_value=0, max_value=2048),
       st.binary(min_size=256, max_size=256))
def test_huffman_decode_corrupt_parity(vectorised, body, output_length,
                                       table):
    _agree_with_pure(vectorised, "huffman_decode", body, output_length,
                     table)


@quick
@given(words, st.integers(min_value=0, max_value=4))
def test_rle_decode_roundtrip_matches(vectorised, values, slack):
    data = pure.words_to_bytes(values)
    records = pure.rle_records(data, len(values))
    # Decoding must ignore container padding past the declared length.
    padded = records + b"\x00" * slack
    got = vectorised.rle_decode(padded, len(data))
    assert got == pure.rle_decode(padded, len(data))
    assert got == data


@quick
@given(st.binary(max_size=1024),
       st.integers(min_value=0, max_value=4096))
def test_rle_decode_corrupt_parity(vectorised, records, output_length):
    _agree_with_pure(vectorised, "rle_decode", records, output_length)
