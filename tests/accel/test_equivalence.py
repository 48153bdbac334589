"""Cross-backend equivalence: the native backend is byte-identical to pure.

The pure backend is the semantic reference; these property tests pin
the native backend (when the compiled extension is built) to it
bit-for-bit on randomised inputs.  Native kernels take the C path at
every size, so each case exercises the C code even on hypothesis-sized
payloads.  Without the extension every case skips, so the suite
degrades cleanly on a base install.
"""

# The equivalence suite is the one place that must reach the backend
# modules directly instead of going through the dispatch facade.
# repro-lint: disable=B804

import hashlib
from array import array
from random import Random

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

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
    """The native backend, its planner compared even past a self-check."""
    if not accel.native_available():
        pytest.skip("native extension not built")
    from repro.accel import native_backend as backend
    # Compare the C planner itself even where its import-time
    # self-check sent it to pure: a mismatch then fails here with a
    # shrunk example instead of passing as pure against pure.
    monkeypatch.setattr(backend, "_PLANNER_MATCHES_PURE", True)
    return backend


# function_scoped_fixture is deliberate: the planner flag stays patched
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


word_blocks = st.integers(min_value=0, max_value=1024).flatmap(
    lambda count: st.binary(min_size=4 * count, max_size=4 * count))


@quick
@given(word_blocks, st.integers(min_value=0, max_value=0xFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF), st.data())
def test_crc32c_words_matches(vectorised, data, address, crc, draw):
    whole = pure.crc32c_words(data, address, crc)
    assert vectorised.crc32c_words(data, address, crc) == whole
    # Splitting at any word boundary and chaining is the same fold.
    split = 4 * draw.draw(st.integers(min_value=0,
                                      max_value=len(data) // 4))
    for backend in (vectorised, pure):
        head = backend.crc32c_words(data[:split], address, crc)
        assert backend.crc32c_words(data[split:], address, head) == whole


# The C fold steps four words at a time and finishes the last 0-3
# words one by one: pin every tail length around one, two and four
# steps, whatever hypothesis draws.
_CRC_WORD_BLOCK = bytes(Random(27).getrandbits(8) for _ in range(4 * 17))


@pytest.mark.parametrize("address", [0, 1, 255])
@pytest.mark.parametrize("count", [*range(10), 15, 16, 17])
def test_crc32c_words_pinned_lengths(vectorised, count, address):
    data = _CRC_WORD_BLOCK[:4 * count]
    for crc in (0, 0xFFFFFFFF, 0x1EDC6F41):
        assert vectorised.crc32c_words(data, address, crc) \
            == pure.crc32c_words(data, address, crc)


@pytest.mark.parametrize("address", [0, 1, 255])
@pytest.mark.parametrize("split", range(10))
def test_crc32c_words_chains_at_every_word_of_nine(vectorised, split,
                                                   address):
    data = _CRC_WORD_BLOCK[:36]
    whole = pure.crc32c_words(data, address, 0x89ABCDEF)
    head = vectorised.crc32c_words(data[:4 * split], address, 0x89ABCDEF)
    assert vectorised.crc32c_words(data[4 * split:], address, head) == whole


# The dispatch facade owns the CRC seed domain: pure's table lookups
# are defined for 32-bit seeds only, so a wider seed is refused before
# either backend runs.
@pytest.mark.parametrize("backend", ["pure", "native"])
@pytest.mark.parametrize("crc", [-1, 1 << 32, 1 << 40])
@pytest.mark.parametrize("length", [0, 3, 24])
def test_crc_seed_outside_32_bits_raises(backend, crc, length):
    with accel.using(backend):
        with pytest.raises(ValueError, match="outside 0..0xFFFFFFFF"):
            accel.crc32c(bytes(length), crc)
        with pytest.raises(ValueError, match="outside 0..0xFFFFFFFF"):
            accel.crc32c_words(bytes(length - length % 4), 2, crc)


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


_WRITER_WIDTHS = (0, 1, 7, 8, 55, 56, 57, 63, 64)


@pytest.mark.parametrize("width", _WRITER_WIDTHS)
def test_bitpack_writer_widths(vectorised, width):
    # All-ones tokens of one width, from one token to long runs; the
    # widths straddle the writer's 56-bit split and its 8-byte stores,
    # and runs of 64-bit tokens fill the output up to its 8 bytes of
    # slack.
    for count in (1, 7, 8, 9, 300):
        values = [(1 << width) - 1] * count
        widths = [width] * count
        assert vectorised.bitpack(values, widths) == \
            pure.bitpack(values, widths)


@pytest.mark.parametrize("values,widths", [
    ([0xFF] * 12, [8] * 3), ([1] * 4000, [8] * 1000),
    ([0x1] * 3, [1] * 12), ([], [8]), ([5], [])],
    ids=["short-widths", "long-values", "short-values", "no-values",
         "no-widths"])
def test_bitpack_stops_at_the_shorter_sequence(vectorised, values,
                                               widths):
    # Pure zips values with widths; C must not read past either one
    # (the long case puts the widths in a heap block a sanitizer sees).
    assert vectorised.bitpack(values, widths) == pure.bitpack(values,
                                                              widths)


@pytest.mark.parametrize("lead", [0, 1, 3, 7])
def test_bitpack_writer_mixed_widths(vectorised, lead):
    # Every writer width after every bit phase, all-ones and alternating
    # patterns, so a split or a store that drops or smears a bit shows.
    values, widths = [1] * lead, [1] * lead
    for width in _WRITER_WIDTHS:
        for other in _WRITER_WIDTHS:
            for pattern in ((1 << 64) - 1, 0xAAAAAAAAAAAAAAAA):
                values += [pattern & ((1 << width) - 1),
                           pattern & ((1 << other) - 1)]
                widths += [width, other]
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


# The native scan finds full and partial matches in one pass: the max
# over entries of (matched bytes, -location).  These streams pin the
# cases where that could part from the reference's rule (a full match
# first, then the best score, the lowest location on ties).


def _assert_same_xmatch_tokens(vectorised, values, capacity):
    data = pure.words_to_bytes(values)
    want = pure.xmatch_tokens(data, len(values), capacity)
    assert vectorised.xmatch_tokens(data, len(values), capacity) == want
    return want


def test_xmatch_tokens_tie_on_matched_bytes(vectorised):
    # Two entries match the probe in as many bytes through different
    # masks; whichever went in last sits at location 0 and must win.
    # The two-byte pair shares one byte, so both go in as misses.  The
    # three-byte pair shares two, so each goes in by replacing a helper
    # word it shares three bytes with (a partial match).
    probe = 0x11223344
    two_high, two_odd = 0x1122EEFF, 0xAA22CC44
    three_low, three_mid = 0x11223399, 0x11AA3344
    helper_low, helper_mid = 0x1122BB99, 0x77AA3344
    streams = (([two_high, two_odd, probe], 23),
               ([two_odd, two_high, probe], 23),
               ([helper_low, three_low, helper_mid, three_mid, probe], 14),
               ([helper_mid, three_mid, helper_low, three_low, probe], 14))
    for values, width in streams:
        for capacity in (2, 8, 64):
            _, widths = _assert_same_xmatch_tokens(vectorised, values,
                                                   capacity)
            # '0', a 1-bit location, the mask code, the literal bytes:
            # a partial match, not a miss or a full match.
            assert widths[-1] == width


def test_xmatch_tokens_full_match_behind_partial(vectorised):
    # The word shares three bytes with the entry at location 0 and all
    # four with the one at location 1: the full match must win.  A
    # word sharing three bytes with the target would replace it, so
    # the near word gets in along a chain of partial matches that
    # each beat the target: far (one byte in common with the target)
    # goes in by a miss, then step replaces far, then near replaces
    # step (a three-byte tie, won by step's lower location).
    target, far, step, near = 0x12345678, 0xAABB56FF, 0xAA3456FF, 0x123456FF
    for capacity in (2, 3, 8, 64):
        tokens, widths = _assert_same_xmatch_tokens(
            vectorised, [target, far, step, near, target], capacity)
        # '0', location 1 in one bit, '0': the full-match code.
        assert (tokens[-1], widths[-1]) == (0b010, 3)


@pytest.mark.parametrize("capacity", [2, 3, 5, 7, 8, 63, 64])
def test_xmatch_tokens_filling_and_full_dictionary(vectorised, capacity):
    # Words with no byte in common miss and fill the dictionary; probes
    # between the misses hit every location, full and partial.  While
    # it fills, the probes 0x00000100 and 0x01000000 share three bytes
    # with an all-zero word: a lane past the dictionary's size must
    # never answer them.  Past capacity the oldest entries are evicted
    # and probing them again must miss.
    distinct = [index * 0x01010101 for index in range(1, capacity + 4)]
    values = []
    for count, word in enumerate(distinct, start=1):
        values.append(word)
        values += [0x00000100, 0x01000000]
        for back in sorted({0, count // 2, count - 1}):
            if back < min(count, capacity):
                probe = distinct[count - 1 - back]
                values += [probe, probe ^ 0xFF, probe ^ 0xFFFF]
    values += distinct[:4] + distinct[-capacity:] + distinct[::-1]
    _assert_same_xmatch_tokens(vectorised, values, capacity)


def test_xmatch_mask_codes_rank_by_matched_bytes():
    # What the one-pass scan relies on: every mask with at least two
    # matched bytes has a code and no other mask does, all masks with
    # one matched-byte count share one code length, and the score
    # (8 per matched byte minus the code length) rises with the count.
    length_of = {}
    for mask in range(16):
        matched = bin(mask).count("1")
        assert (mask in accel.XMATCH_MASK_CODES) == (matched >= 2)
        if matched >= 2:
            _, length = accel.XMATCH_MASK_CODES[mask]
            assert length_of.setdefault(matched, length) == length
    scores = [8 * matched - length_of[matched] for matched in (2, 3, 4)]
    assert scores == sorted(set(scores))


@quick
@given(st.binary(max_size=2048),
       st.integers(min_value=4, max_value=12),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=8),
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


@pytest.mark.parametrize("window_bits, max_chain", [(15, 64), (16, 128)])
def test_lz77_tokens_byte_lz_layouts(vectorised, window_bits, max_chain):
    # The Zip and 7-zip regime: 4-byte keys, 8-bit lengths, chains
    # deeper than the probe limit (a 4-symbol stretch) and block
    # repeats farther apart than the window.
    rng = Random(2012)
    blocks = [rng.randbytes(512) for _ in range(4)]
    data = bytes(rng.randrange(4) for _ in range(3000)) + b"".join(
        rng.choice(blocks)[:rng.randrange(64, 512)] + bytes(rng.randrange(8))
        for _ in range(300))
    assert len(data) > 1 << window_bits
    args = (data, window_bits, 8, 4, max_chain)
    assert vectorised.lz77_tokens(*args) == pure.lz77_tokens(*args)


# -- the hash-chain walk's edge cases ------------------------------------
# The C walk reads each key with one 8-byte load (from a zero-padded
# copy of the last 8 bytes near the end), skips a candidate whose byte
# at the best length differs, and compares 8 bytes at a time, the last
# word overlapping the one before it (byte by byte below 8 bytes).

# (window_bits, length_bits, min_match, max_chain): LZ77's and Zip's.
_LZ_LAYOUTS = [(8, 4, 3, 8), (15, 8, 4, 64)]


def _match_spans(stream, length_bits, min_match):
    """``{start: (length, offset)}`` of the match tokens in ``stream``."""
    spans = {}
    position = 0
    for value, width in zip(*stream):
        if width == 9:
            position += 1
            continue
        length = (value & ((1 << length_bits) - 1)) + min_match
        offset = ((value >> length_bits)
                  & ((1 << (width - 1 - length_bits)) - 1)) + 1
        spans[position] = (length, offset)
        position += length
    return spans


def _lz_agree(vectorised, data, *layout):
    got = vectorised.lz77_tokens(data, *layout)
    assert got == pure.lz77_tokens(data, *layout)
    return got


@pytest.mark.parametrize("layout", _LZ_LAYOUTS)
@pytest.mark.parametrize("tail", range(9))
def test_lz77_tokens_match_ends_near_len(vectorised, layout, tail):
    # The longest match ends at len - tail: at len itself, or inside
    # the last 8 bytes, where the word compare takes its last word.
    _, length_bits, min_match, _ = layout
    rng = Random(tail)
    source = rng.randbytes(40)
    for length in range(min_match, min_match + 18):
        if length > min_match + (1 << length_bits) - 1:
            break
        start = 40 + 16
        data = (source + rng.randbytes(16) + source[:length]
                + bytes([source[length] ^ 0xFF]) + rng.randbytes(tail)
                )[:start + length + tail]
        spans = _match_spans(_lz_agree(vectorised, data, *layout),
                             length_bits, min_match)
        assert spans[start] == (length, start)


@pytest.mark.parametrize("layout", _LZ_LAYOUTS)
@pytest.mark.parametrize("best", [5, 8, 12, 13, 16])
@pytest.mark.parametrize("diverge, same_at_best", [
    (-1, True), (-1, False), (0, False), (1, True)])
def test_lz77_tokens_candidates_diverging_around_best(
        vectorised, layout, best, diverge, same_at_best):
    # The newest candidate sets best_length = best; an older one with
    # the same key leaves the target at best + diverge.  Only the
    # longer run (diverge 1) replaces the newest; the run one short of
    # best is tried both with a matching and a differing byte at best.
    _, length_bits, min_match, _ = layout
    rng = Random(best * 4 + diverge)
    target = rng.randbytes(best + 12)

    def leaving_at(run):
        body = bytearray(target)
        body[run] ^= 0xFF
        return bytes(body)

    older = leaving_at(best + diverge)
    if diverge == -1:
        older = bytearray(older)
        if not same_at_best:
            older[best] ^= 0x55
        older = bytes(older)
    assert (older[best] == target[best]) == same_at_best
    newer = leaving_at(best)
    gap = rng.randbytes(24)
    data = older + gap + newer + gap[::-1] + target
    start = len(data) - len(target)
    spans = _match_spans(_lz_agree(vectorised, data, *layout),
                         length_bits, min_match)
    if diverge == 1:
        assert spans[start] == (best + 1, start)
    else:
        assert spans[start] == (best, start - len(older) - len(gap))


@pytest.mark.parametrize("min_match", [1, 6, 7, 8])
@pytest.mark.parametrize("window_bits, length_bits, max_chain",
                         [(8, 4, 8), (15, 8, 64)])
def test_lz77_tokens_wide_and_narrow_keys(vectorised, min_match,
                                          window_bits, length_bits,
                                          max_chain):
    rng = Random(min_match)
    blocks = [rng.randbytes(48) for _ in range(3)]
    data = b"".join(rng.choice(blocks)[rng.randrange(8):]
                    + bytes(rng.randrange(4)) for _ in range(80))
    _lz_agree(vectorised, data, window_bits, length_bits, min_match,
              max_chain)


@pytest.mark.parametrize("min_match", range(1, 9))
def test_lz77_tokens_keys_near_the_end(vectorised, min_match):
    # Keys within 8 bytes of the end come from the padded copy; they
    # must equal the keys of the same bytes loaded from the input.
    for length in range(25):
        for period in (1, 3, 5, 9):
            pattern = bytes(range(1, period + 1)) * 4
            _lz_agree(vectorised, (pattern * 3)[:length], 8, 4,
                      min_match, 8)
    key = b"WXYZABCD"[:min_match]
    data = key + Random(min_match).randbytes(20) + key
    spans = _match_spans(_lz_agree(vectorised, data, 8, 4, min_match, 8),
                         4, min_match)
    assert spans[len(data) - min_match] == (min_match, 20 + min_match)


@pytest.mark.parametrize("layout", [(-1, 4, 3, 8), (8, -1, 3, 8),
                                    (8, 4, 3, -1)])
def test_lz77_tokens_negative_fields_raise(vectorised, layout):
    # A negative window, length field or chain length: pure raises, so
    # the native backend must not reach the C kernel with it.
    for backend in (pure, vectorised):
        with pytest.raises(ValueError):
            backend.lz77_tokens(b"abcabcabc", *layout)


def test_lz77_tokens_many_distinct_keys(vectorised):
    # 64 KB of mostly distinct 4-byte keys in 2^15 buckets: long chains
    # of colliding keys the walk must pass over, at 7-zip's layout.
    rng = Random(64)
    parts = []
    size = 0
    while size < 1 << 16:
        if parts and rng.random() < 0.3:
            part = rng.choice(parts)[:rng.randrange(4, 300)]
        else:
            part = rng.randbytes(rng.randrange(16, 400))
        parts.append(part)
        size += len(part)
    data = b"".join(parts)[:1 << 16]
    _lz_agree(vectorised, data, 16, 8, 4, 128)


# Byte strings whose histograms tie often: a few symbols, each
# repeated a count drawn from a small set, so equal weights meet in
# the merge and the (weight, insertion order) tie-break decides.
tied_histograms = st.lists(
    st.tuples(st.integers(min_value=0, max_value=255),
              st.sampled_from([1, 2, 3, 5, 8])),
    max_size=40,
).map(lambda runs: b"".join(bytes([symbol]) * count
                            for symbol, count in runs))


@quick
@given(st.one_of(st.binary(max_size=4096), tied_histograms))
def test_huffman_code_table_matches(vectorised, data):
    assert vectorised.huffman_code_table(data) == \
        pure.huffman_code_table(data)


def _fibonacci_skewed(symbols):
    """Symbol k repeated F(k+1) times: the deepest tree for its size."""
    counts = [1, 1]
    while len(counts) < symbols:
        counts.append(counts[-1] + counts[-2])
    return b"".join(bytes([symbol]) * count
                    for symbol, count in enumerate(counts))


def test_huffman_code_table_boundaries(vectorised):
    # Empty input (no codes), one symbol (a 1-bit code of 0), all 256
    # symbols at equal and at ramped weights, and Fibonacci weights,
    # whose tree is a chain: 26 symbols give a 25-bit code.
    deep = _fibonacci_skewed(26)
    cases = (b"", b"\x07", b"\x07" * 300, bytes(range(256)),
             bytes(range(256)) + bytes(range(128)),
             b"".join(bytes([symbol]) * (symbol + 1)
                      for symbol in range(256)),
             deep, deep[::-1])
    for data in cases:
        assert vectorised.huffman_code_table(data) == \
            pure.huffman_code_table(data)
    assert max(pure.huffman_code_table(deep)[1]) == 25


@quick
@given(st.binary(min_size=1, max_size=2048))
def test_huffman_pack_matches(vectorised, data):
    codes, lengths = pure.huffman_code_table(data)
    assert vectorised.huffman_pack(data, codes, lengths) == \
        pure.huffman_pack(data, codes, lengths)


def test_huffman_pack_boundaries(vectorised):
    for data in (b"\x00", b"\x00" * 300, bytes(range(256))):
        codes, lengths = pure.huffman_code_table(data)
        assert vectorised.huffman_pack(data, codes, lengths) == \
            pure.huffman_pack(data, codes, lengths)
    # Fibonacci weights: a chain tree with codes up to 25 bits.  Pack
    # the skewed bytes themselves and runs of the longest codes.
    deep = _fibonacci_skewed(26)
    codes, lengths = pure.huffman_code_table(deep)
    assert max(lengths) == 25
    for data in (deep, deep[::-1], bytes([24, 25]) * 400,
                 bytes(range(26)) * 50):
        assert vectorised.huffman_pack(data, codes, lengths) == \
            pure.huffman_pack(data, codes, lengths)
    # The packer takes any table: all-ones codes at the writer's
    # boundary widths, 57-64 bits included, which no real table has.
    lengths = [_WRITER_WIDTHS[symbol % len(_WRITER_WIDTHS)]
               for symbol in range(256)]
    codes = [(1 << length) - 1 for length in lengths]
    data = bytes(range(len(_WRITER_WIDTHS))) * 40
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
    codes, lengths = pure.huffman_code_table(data)
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


# -- LZ78 and 7-zip codec stages --------------------------------------
# Same two properties, plus corrupt streams derived from valid ones
# (a flipped bit, a truncation, trailing bytes), which reach the
# decoders' error points far more often than arbitrary bodies do.
# Seeds are fixed so a parity failure reproduces as-is.

# Random bytes mixed with repetitions: long phrases and matches as well
# as literals, and self-overlapping copies from short repeats.
payloads = st.one_of(
    st.binary(max_size=2048),
    st.builds(lambda chunk, repeats, tail: chunk * repeats + tail,
              st.binary(min_size=1, max_size=64),
              st.integers(min_value=1, max_value=64),
              st.binary(max_size=32)),
)
lz78_entries = st.sampled_from([2, 3, 64, 1024])


def _mutated(body, kind, position, extra):
    """``body`` with one bit flipped, truncated, or extended."""
    if kind == "flip" and body:
        index = position % (8 * len(body))
        flipped = bytearray(body)
        flipped[index >> 3] ^= 0x80 >> (index & 7)
        return bytes(flipped)
    if kind == "truncate":
        return body[:position % (len(body) + 1)]
    return body + extra


mutations = st.tuples(st.sampled_from(["flip", "truncate", "extend"]),
                      st.integers(min_value=0, max_value=1 << 16),
                      st.binary(min_size=1, max_size=8))


@seed(2012)
@quick
@given(payloads, lz78_entries)
def test_lz78_pack_matches(vectorised, data, max_entries):
    assert vectorised.lz78_pack(data, max_entries) == \
        pure.lz78_pack(data, max_entries)


@seed(2012)
@quick
@given(payloads, lz78_entries)
def test_lz78_decode_roundtrip_matches(vectorised, data, max_entries):
    body = pure.lz78_pack(data, max_entries)
    got = vectorised.lz78_decode(body, len(data), max_entries)
    assert got == pure.lz78_decode(body, len(data), max_entries)
    assert got == data


def test_lz78_boundaries(vectorised):
    # Empty input; inputs ending exactly on a dictionary phrase (the
    # final token is an index alone); dictionary resets at every size.
    for data in (b"", b"a", b"aba", b"abab" * 3 + b"ab", b"\x00" * 4097,
                 bytes(range(256)) * 9):
        for max_entries in (0, 1, 2, 64, 1024, 1 << 40):
            body = vectorised.lz78_pack(data, max_entries)
            assert body == pure.lz78_pack(data, max_entries)
            assert vectorised.lz78_decode(body, len(data), max_entries) \
                == data


@seed(2012)
@quick
@given(st.binary(max_size=512), st.integers(min_value=0, max_value=4096),
       lz78_entries)
def test_lz78_decode_corrupt_parity(vectorised, body, output_length,
                                    max_entries):
    _agree_with_pure(vectorised, "lz78_decode", body, output_length,
                     max_entries)


@seed(2012)
@quick
@given(payloads, lz78_entries, mutations,
       st.integers(min_value=-2, max_value=2))
def test_lz78_decode_mutated_parity(vectorised, data, max_entries,
                                    mutation, slack):
    body = _mutated(pure.lz78_pack(data, max_entries), *mutation)
    _agree_with_pure(vectorised, "lz78_decode", body,
                     max(0, len(data) + slack), max_entries)


# 7-zip token streams are lz77_tokens output in the byte-LZ layout:
# 9-bit literals, 25-bit matches of offset-1 << 8 | length-4.
_LZMA_MASK = (1 << 24) - 1


def _lzma_tokens(data):
    return pure.lz77_tokens(data, 16, 8, 4, 128)


def _assert_lzma_roundtrip(vectorised, data):
    values, widths = _lzma_tokens(data)
    body = vectorised.lzma_pack(values, widths, _LZMA_MASK)
    assert body == pure.lzma_pack(values, widths, _LZMA_MASK)
    got = vectorised.lzma_decode(body, len(data))
    assert got == pure.lzma_decode(body, len(data))
    assert got == data


@seed(2012)
@quick
@given(payloads)
def test_lzma_roundtrip_matches(vectorised, data):
    _assert_lzma_roundtrip(vectorised, data)


@seed(2012)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(min_size=1, max_size=3), st.integers(min_value=2100,
                                                      max_value=4000))
def test_lzma_model_halving_matches(vectorised, alphabet, count):
    # Every coded symbol adds 32 to its model, so a few thousand
    # literals over a tiny alphabet push the kind model and the
    # literal contexts past a total of 65,536 and halve them.
    rng = Random(count)
    data = bytes(rng.choice(alphabet) for _ in range(count))
    values, widths = _lzma_tokens(data)
    literals = array("Q", (byte for byte in data))
    _assert_lzma_roundtrip(vectorised, data)
    nine = array("B", [9]) * len(literals)
    body = vectorised.lzma_pack(literals, nine, _LZMA_MASK)
    assert body == pure.lzma_pack(literals, nine, _LZMA_MASK)
    assert vectorised.lzma_decode(body, len(data)) == data


def test_lzma_boundaries(vectorised):
    # Empty input (the end token alone); a literal right after a match
    # (its context resets to 0); self-overlapping copies (offset <
    # length); the longest match and the farthest offset.
    for data in (b"", b"\x00", b"abcd" * 20 + b"z" + b"abcd" * 2,
                 b"a" * 300, b"ab" * 500, b"\x07" * 4 + b"\x07",
                 bytes(range(256)) * 300):
        _assert_lzma_roundtrip(vectorised, data)
    far = Random(7).randbytes(65536)
    _assert_lzma_roundtrip(vectorised, far[:300] + far + far[:259])


@seed(2012)
@quick
@given(st.binary(max_size=512), st.integers(min_value=0, max_value=4096))
def test_lzma_decode_corrupt_parity(vectorised, body, output_length):
    _agree_with_pure(vectorised, "lzma_decode", body, output_length)


@seed(2012)
@quick
@given(payloads, mutations, st.integers(min_value=-2, max_value=2))
def test_lzma_decode_mutated_parity(vectorised, data, mutation, slack):
    body = _mutated(pure.lzma_pack(*_lzma_tokens(data), _LZMA_MASK),
                    *mutation)
    _agree_with_pure(vectorised, "lzma_decode", body,
                     max(0, len(data) + slack))


def test_lzma_pack_symbol_range_parity(vectorised):
    # A literal past 255 or an offset past 16 bits has no symbol in its
    # model; both backends raise the reference's ValueError.
    for values, widths, mask in (([256], [9], _LZMA_MASK),
                                 ([(1 << 30) - 1], [31], (1 << 30) - 1),
                                 ([1 << 70], [9], _LZMA_MASK)):
        with pytest.raises(ValueError) as want:
            pure.lzma_pack(values, widths, mask)
        with pytest.raises(ValueError) as got:
            vectorised.lzma_pack(values, widths, mask)
        assert str(got.value) == str(want.value)


# The C coder renormalises once per symbol: it shifts out all the bits
# low and high share, then the whole underflow run, and reads or writes
# them in one step.  Pure's coder, traced, shows which of those bulk
# steps a pinned stream drives.


class _TracedEncoder(pure.ArithmeticEncoder):
    """Pure's encoder, recording the shape of its renormalisations."""

    last = None

    def __init__(self):
        super().__init__()
        self.emitted = 0
        self.widest = 0          # most bits one symbol emitted
        self.crossing_runs = 0   # pending runs spanning a byte boundary
        self.longest_pending = 0
        _TracedEncoder.last = self

    def _emit(self, bit):
        super()._emit(bit)
        self.emitted += 1

    def encode(self, model, symbol):
        before = self.emitted
        super().encode(model, symbol)
        self.widest = max(self.widest, self.emitted - before)
        self.longest_pending = max(self.longest_pending, self._pending)

    def _emit_with_pending(self, bit):
        start, run = self.emitted + 1, self._pending
        super()._emit_with_pending(bit)
        if run and start // 8 != (start + run - 1) // 8:
            self.crossing_runs += 1


def _traced_lzma_pack(monkeypatch, values, widths):
    with monkeypatch.context() as patch:
        patch.setattr(pure, "ArithmeticEncoder", _TracedEncoder)
        body = pure.lzma_pack(values, widths, _LZMA_MASK)
    return body, _TracedEncoder.last


def _literal_tokens(data):
    """A 7-zip token stream of literals only."""
    return array("Q", list(data)), array("B", [9]) * len(data)


def test_lzma_decode_every_truncation_parity(vectorised, monkeypatch):
    # Literals, far and near matches and self-overlapping copies, cut
    # at every byte: near the cut the decoder's 8-byte code loads read
    # some real bits and some implicit zeros, and past 32 of those the
    # stream is exhausted.  One symbol emits 9 or more bits at once,
    # and a pending underflow run crosses a byte boundary.
    data = (b"abcabcabcd" + bytes(range(40)) + b"z" * 30 + b"abcabc"
            + bytes(range(40)) + b"ab" * 20)
    values, widths = _lzma_tokens(data)
    assert set(widths) == {9, 25}
    body, traced = _traced_lzma_pack(monkeypatch, values, widths)
    assert traced.widest >= 9 and traced.crossing_runs
    assert vectorised.lzma_pack(values, widths, _LZMA_MASK) == body
    for cut in range(len(body) + 1):
        _agree_with_pure(vectorised, "lzma_decode", body[:cut], len(data))


@pytest.mark.parametrize("last, needed", [(203, 32), (198, 33)])
def test_lzma_decode_cut_inside_the_implicit_zeros(vectorised, last,
                                                   needed):
    # Seven literals whose code stream ends in a zero byte, found by a
    # seeded search with pure.  Cut that byte off and the decoder reads
    # it back as implicit zeros: with 203 last it then needs exactly
    # the 32 allowed, with 198 one more, which exhausts the stream.
    data = bytes.fromhex("ac4c09c2e7e3") + bytes([last])
    literals, nine = _literal_tokens(data)
    body = vectorised.lzma_pack(literals, nine, _LZMA_MASK)
    assert body == pure.lzma_pack(literals, nine, _LZMA_MASK)
    assert body[-1] == 0
    if needed <= 32:
        assert pure.lzma_decode(body[:-1], len(data)) == data
    else:
        with pytest.raises(CorruptStreamError, match="exhausted"):
            pure.lzma_decode(body[:-1], len(data))
    for cut in range(len(body) + 1):
        _agree_with_pure(vectorised, "lzma_decode", body[:cut], len(data))


def test_lzma_pending_run_longer_than_one_write(vectorised, monkeypatch):
    # Each literal's interval holds the midpoint of the one before (a
    # greedy search with pure chose them), so no bit is shared and the
    # underflows pile up: over 100 pending bits, written after the end
    # token as runs wider than the coder's 56-bit writes.
    data = bytes.fromhex("c000000000387d0da63b54f9e533")
    literals, nine = _literal_tokens(data)
    body, traced = _traced_lzma_pack(monkeypatch, literals, nine)
    assert traced.longest_pending > 64
    assert vectorised.lzma_pack(literals, nine, _LZMA_MASK) == body
    for cut in range(len(body) + 1):
        _agree_with_pure(vectorised, "lzma_decode", body[:cut], len(data))


# -- splices of two valid streams of one codec ------------------------
# The head of one stream on the tail of another: a well-formed prefix
# leaves the decoder's state mid-stream where the rest of the body no
# longer fits it.  The declared length is the head's.

splices = st.tuples(st.integers(min_value=0, max_value=1 << 16),
                    st.integers(min_value=0, max_value=1 << 16))


def _spliced(first, second, head, tail):
    return first[:head % (len(first) + 1)] + second[tail % (len(second) + 1):]


@seed(2012)
@quick
@given(payloads, payloads, splices, st.integers(min_value=-2, max_value=2))
def test_lzma_decode_splice_parity(vectorised, first, second, cuts, slack):
    body = _spliced(pure.lzma_pack(*_lzma_tokens(first), _LZMA_MASK),
                    pure.lzma_pack(*_lzma_tokens(second), _LZMA_MASK),
                    *cuts)
    _agree_with_pure(vectorised, "lzma_decode", body,
                     max(0, len(first) + slack))


@seed(2012)
@quick
@given(payloads, payloads, splices, st.integers(min_value=-2, max_value=2))
def test_huffman_decode_splice_parity(vectorised, first, second, cuts,
                                      slack):
    # The length table travels with the head, as in the codec's stream:
    # a head shorter than it takes the rest of its table from the tail.
    def stream(data):
        codes, lengths = pure.huffman_code_table(data)
        return bytes(lengths) + pure.huffman_pack(data, codes, lengths)

    spliced = _spliced(stream(first), stream(second), *cuts)
    _agree_with_pure(vectorised, "huffman_decode", spliced[256:],
                     max(0, len(first) + slack),
                     spliced[:256].ljust(256, b"\x00"))


# -- mutated streams for the older decoders ---------------------------
# The same bit-flip, truncation and extension mutations as above, of
# valid streams from the four mode-ii codecs' encoders.


@seed(2012)
@quick
@given(st.one_of(words, rle_runs), mutations,
       st.integers(min_value=-2, max_value=2))
def test_rle_decode_mutated_parity(vectorised, values, mutation, slack):
    data = pure.words_to_bytes(values)
    records = _mutated(pure.rle_records(data, len(values)), *mutation)
    _agree_with_pure(vectorised, "rle_decode", records,
                     max(0, len(data) + 4 * slack))


@seed(2012)
@quick
@given(payloads, st.sampled_from([(4, 2, 2), (8, 4, 3), (12, 6, 5)]),
       mutations, st.integers(min_value=-2, max_value=2))
def test_lz77_decode_mutated_parity(vectorised, data, layout, mutation,
                                    slack):
    window_bits, length_bits, min_match = layout
    body = _mutated(pure.bitpack(*pure.lz77_tokens(
        data, window_bits, length_bits, min_match, 8)), *mutation)
    _agree_with_pure(vectorised, "lz77_decode", body,
                     max(0, len(data) + slack), window_bits, length_bits,
                     min_match)


@seed(2012)
@quick
@given(words, st.sampled_from([2, 8, 16, 64]), mutations,
       st.integers(min_value=-2, max_value=2))
def test_xmatch_decode_mutated_parity(vectorised, values, capacity,
                                      mutation, slack):
    data = pure.words_to_bytes(values)
    body = _mutated(pure.bitpack(*pure.xmatch_tokens(
        data, len(values), capacity)), *mutation)
    _agree_with_pure(vectorised, "xmatch_decode", body,
                     max(0, len(data) + 4 * slack), capacity)


@seed(2012)
@quick
@given(payloads, mutations, st.integers(min_value=-2, max_value=2))
def test_huffman_decode_mutated_parity(vectorised, data, mutation, slack):
    # The mutation runs over the length table and the body together,
    # as they sit in the codec's stream; a table cut short reads as
    # absent symbols.
    codes, lengths = pure.huffman_code_table(data)
    stream = _mutated(bytes(lengths) + pure.huffman_pack(data, codes,
                                                         lengths),
                      *mutation)
    _agree_with_pure(vectorised, "huffman_decode", stream[256:],
                     max(0, len(data) + slack),
                     stream[:256].ljust(256, b"\x00"))


# -- Zip's byte-token stage -------------------------------------------
# Zip parses with a 32 KB window: 9-bit literals, 24-bit matches of
# offset-1 << 8 | length-4 under the mask.
_ZIP_MASK = (1 << 23) - 1


def _zip_tokens(data):
    return pure.lz77_tokens(data, 15, 8, 4, 64)


def _assert_lzbytes_roundtrip(vectorised, data):
    values, widths = _zip_tokens(data)
    body = vectorised.lzbytes_pack(values, widths, _ZIP_MASK)
    assert body == pure.lzbytes_pack(values, widths, _ZIP_MASK)
    got = vectorised.lzbytes_decode(body, len(data))
    assert got == pure.lzbytes_decode(body, len(data))
    assert got == data
    return values, widths


@seed(2012)
@quick
@given(payloads)
def test_lzbytes_roundtrip_matches(vectorised, data):
    _assert_lzbytes_roundtrip(vectorised, data)


def test_lzbytes_boundaries(vectorised):
    # Empty input (no control byte at all); literals only, in token
    # counts that fill whole control groups (8, 16, 256) and that leave
    # a short last group (1, 9, 255); self-overlapping copies (offset
    # 1 and 2); the longest match, 259 bytes (length byte 255).
    for data in (b"", bytes(range(1)), bytes(range(8)), bytes(range(9)),
                 bytes(range(16)), bytes(range(255)), bytes(range(256)),
                 b"a" * 40, b"ab" * 500):
        _assert_lzbytes_roundtrip(vectorised, data)
    for size in (8, 9, 16, 255):
        values, widths = _assert_lzbytes_roundtrip(vectorised,
                                                   bytes(range(size)))
        assert set(widths) == {9} and len(values) == size
    values, widths = _assert_lzbytes_roundtrip(
        vectorised, b"xyz" + b"\x00" * 263 + b"xyz")
    assert any(width != 9 and value & 0xFF == 255
               for value, width in zip(values, widths))


@seed(2012)
@quick
@given(st.binary(max_size=512), st.integers(min_value=0, max_value=4096))
def test_lzbytes_decode_corrupt_parity(vectorised, body, output_length):
    _agree_with_pure(vectorised, "lzbytes_decode", body, output_length)


@seed(2012)
@quick
@given(payloads, mutations, st.integers(min_value=-2, max_value=2))
def test_lzbytes_decode_mutated_parity(vectorised, data, mutation, slack):
    body = _mutated(pure.lzbytes_pack(*_zip_tokens(data), _ZIP_MASK),
                    *mutation)
    _agree_with_pure(vectorised, "lzbytes_decode", body,
                     max(0, len(data) + slack))


def test_lzbytes_decode_every_truncation_parity(vectorised):
    # Cut a stream of literals, short and self-overlapping matches at
    # every byte: each of the four error points, and a match token
    # with one or two of its three bytes, is reached.
    data = b"abcabcabcd" + bytes(range(40)) + b"z" * 30 + b"abcabc"
    body = pure.lzbytes_pack(*_zip_tokens(data), _ZIP_MASK)
    for cut in range(len(body) + 1):
        _agree_with_pure(vectorised, "lzbytes_decode", body[:cut],
                         len(data))


# The same cut at every byte for the bit-serial decoders: a truncated
# body runs out inside each field of each token kind, first where the
# reader's window is a plain 8-byte load and then, near the end, where
# it is assembled byte by byte.


def test_xmatch_decode_every_truncation_parity(vectorised):
    # Misses, full matches at several locations, two- and three-byte
    # partial matches, an equal run, and zero runs of 3 and 300 words
    # (a 255 chunk and its continuation).
    values = [0x12345678, 0x9ABCDEF0, 0x12345678, 0x12345678, 0x12345678,
              0, 0, 0, 0x9ABCDE00, 0x12AB5678, 0x0BADCAFE, 0x9A00DE00]
    values += [0] * 300 + [0x12345678, 0x11111111, 0x9ABCDEF0,
                           0x9ABC0000 | 0x77, 0x22222222]
    data = pure.words_to_bytes(values)
    for capacity in (2, 8, 64):
        body = pure.bitpack(*pure.xmatch_tokens(data, len(values),
                                                capacity))
        for cut in range(len(body) + 1):
            _agree_with_pure(vectorised, "xmatch_decode", body[:cut],
                             len(data), capacity)


@pytest.mark.parametrize("layout", [(4, 2, 2), (12, 6, 5), (16, 16, 3)])
def test_lz77_decode_every_truncation_parity(vectorised, layout):
    # Literals, far and near matches and self-overlapping copies; the
    # widest layout's 33-bit match tokens span a window's 8 bytes.
    window_bits, length_bits, min_match = layout
    data = (b"abcabcabcd" + bytes(range(40)) + b"z" * 30 + b"abcabc"
            + bytes(range(40)) + b"ab" * 20)
    body = pure.bitpack(*pure.lz77_tokens(data, window_bits, length_bits,
                                          min_match, 8))
    for cut in range(len(body) + 1):
        _agree_with_pure(vectorised, "lz77_decode", body[:cut], len(data),
                         window_bits, length_bits, min_match)


def test_huffman_decode_every_truncation_parity(vectorised):
    # A skewed table (1-bit codes, the table-decoded window) and the
    # Fibonacci chain (codes up to 25 bits, past the 12-bit table: the
    # bit-by-bit walk).
    skewed = b"\x00" * 60 + bytes(range(12)) * 3
    deep = _fibonacci_skewed(26)
    for table_source, data in ((skewed, skewed),
                               (deep, deep[:200] + deep[-60:]
                                + bytes(range(26)))):
        codes, lengths = pure.huffman_code_table(table_source)
        body = pure.huffman_pack(data, codes, lengths)
        for cut in range(len(body) + 1):
            _agree_with_pure(vectorised, "huffman_decode", body[:cut],
                             len(data), bytes(lengths))


def test_huffman_decode_length_ends_inside_a_multi_symbol_entry(
        vectorised):
    # 1- and 2-bit codes fill most 12-bit windows with 4 whole
    # codewords, which the decoder takes in one lookup.  Every declared
    # length, up to 3 past the body's, ends the output 1 to 3 symbols
    # into such an entry somewhere, where the decoder must stop short
    # of it, and lengths past the body's run the stream dry.
    data = b"\x00\x00\x01\x00\x02" * 40 + bytes(range(3, 12))
    codes, lengths = pure.huffman_code_table(data)
    assert sorted(set(lengths) - {0})[:2] == [1, 2]
    body = pure.huffman_pack(data, codes, lengths)
    for length in range(len(data) + 4):
        _agree_with_pure(vectorised, "huffman_decode", body, length,
                         bytes(lengths))


def test_lzbytes_pack_symbol_range_parity(vectorised):
    # A literal past 255 or match fields past 24 bits have no byte
    # form; both backends raise the reference's exception.
    for values, widths, mask in (([256], [9], _ZIP_MASK),
                                 ([1 << 24], [25], (1 << 25) - 1),
                                 ([1, 2], [9], _ZIP_MASK)):
        with pytest.raises((ValueError, OverflowError, IndexError)) as want:
            pure.lzbytes_pack(values, widths, mask)
        with pytest.raises(want.type) as got:
            vectorised.lzbytes_pack(values, widths, mask)
        assert str(got.value) == str(want.value)
