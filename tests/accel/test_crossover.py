"""Delegation sentinels: the native backend hands pure exactly what it must.

The native backend has no size crossover: every C kernel answers in C
at every input size, and hands a call to pure only when the input
leaves the C types' domain.  These tests wrap the pure kernels in call
recorders and pin the dispatch decision:

* each C kernel takes the C path at size 0, size 1 and one below the
  size crossover it used to carry (pure untouched), and its output
  equals pure's;
* the domain guards (wide token layouts, a COPY before the first
  frame, a word count past the data, a generator state C cannot
  take, a seed ``Random`` hashes, an unsorted texture table) hand the
  call to pure whatever the size;
* the C seeding and frame planner hand over when their import-time
  self-check finds the interpreter drawing differently;
* the permanent forwarders (``chunk_words``, ``words_to_bytes``)
  hand over at *every* size on every available backend;
* ``huffman_code_table``, the configuration CRC's word fold
  ``crc32c_words``, Zip's byte-token stage and the LZ78 and 7-zip
  codec stages take the C path at every size.

The native section skips cleanly when the extension is not built.
"""

# The sentinel wrappers must patch the pure module directly, and the
# dispatch decisions under test live in the backend modules.
# repro-lint: disable=B804

import struct
from array import array
from random import Random

import pytest

from repro import accel
from repro.accel import pure
from repro.accel.plan import FrameMixture, SynthesisPlan
from repro.bitstream.generator import (
    BitstreamSpec,
    _FrameSynthesizer,
    generate_bitstream,
)
from repro.errors import CorruptStreamError
from repro.units import DataSize

requires_native = pytest.mark.skipif(
    not accel.native_available(),
    reason="native extension not built")


@pytest.fixture
def native_backend():
    if not accel.native_available():
        pytest.skip("native extension not built")
    from repro.accel import native_backend
    return native_backend


def _sentinel(monkeypatch, name):
    """Wrap ``pure.<name>`` so calls are recorded but still answered."""
    original = getattr(pure, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pure, name, wrapper)
    return calls


def _every_backend():
    """Each available backend module in turn."""
    for name in accel.available_backends():
        with accel.using(name):
            yield accel.active()


def _plan(words):
    plan = SynthesisPlan(41)
    remaining = words
    index = 0
    while remaining:
        take = min(41, remaining)
        plan.fill(0xDEAD0000 | index, take)
        remaining -= take
        index += 1
    return plan


_BIG_DATA = bytes(range(256)) * 72      # 18432 bytes / 4608 words
_HUFF_CODES, _HUFF_LENGTHS = pure.huffman_code_table(bytes(range(8)))
_LZ_DATA = bytes(range(64)) * 16                       # 1024 bytes
_LZ_BODY = pure.bitpack(*pure.lz77_tokens(_LZ_DATA, 10, 4, 3, 8))

_MIXTURE: FrameMixture = _FrameSynthesizer(BitstreamSpec())._mixture


def _decodable(decode, full_length, body, *rest):
    """``(body, n, *rest)``: the longest output pure decodes from ``body``.

    Decoder inputs are truncated streams, so the C decoder is checked
    on a body of exactly the size under test and still has to return
    pure's bytes, not only raise where pure raises.
    """
    output_length = 0
    while output_length < full_length:
        try:
            decode(body, output_length + 1, *rest)
        except CorruptStreamError:
            break
        output_length += 1
    return (body, output_length, *rest)


_XM_WORDS = Random(3).randbytes(16) * 32                # 128 words
_XM_BODY = pure.bitpack(*pure.xmatch_tokens(_XM_WORDS, 128, 8))
_HUF_DATA = bytes(value & 7 for value in range(2048))
_HUF_BODY = pure.huffman_pack(_HUF_DATA, _HUFF_CODES, _HUFF_LENGTHS)
# Single words between short runs: many 5-byte records, so every
# prefix of the stream ends on or near a record boundary.
_RLE_DATA = b"".join(
    bytes([index, 1, 2, 3]) * (1 if index % 2 else 3 + index % 5)
    for index in range(64))
_RLE_RECORDS = pure.rle_records(_RLE_DATA, len(_RLE_DATA) // 4)

# (kernel, the size crossover it carried, args for an input of a size):
# the size counts what the crossover counted (bytes, words, tokens,
# body bytes, plan words or frames).  Builders return fresh arguments,
# so a kernel that advances an RNG gets its own.
_SIZED_CASES = [
    ("crc32c", 4, lambda n: (bytes(range(n)), 0x1234)),
    ("bitpack", 8, lambda n: ([(37 * i) & 0xFF for i in range(n)],
                              [8 + i % 5 for i in range(n)])),
    ("huffman_pack", 128, lambda n: (_HUF_DATA[:n], _HUFF_CODES,
                                     _HUFF_LENGTHS)),
    ("xmatch_tokens", 2, lambda n: (_XM_WORDS[:4 * n], n, 8)),
    ("lz77_tokens", 16, lambda n: (_LZ_DATA[:n], 8, 4, 3, 8)),
    ("xmatch_decode", 8,
     lambda n: _decodable(pure.xmatch_decode, 512, _XM_BODY[:n], 8)),
    ("lz77_decode", 8,
     lambda n: _decodable(pure.lz77_decode, 1024, _LZ_BODY[:n],
                          10, 4, 3)),
    ("huffman_decode", 8,
     lambda n: _decodable(pure.huffman_decode, 2048, _HUF_BODY[:n],
                          bytes(_HUFF_LENGTHS))),
    ("rle_decode", 64,
     lambda n: _decodable(pure.rle_decode, len(_RLE_DATA),
                          _RLE_RECORDS[:n])),
    ("synthesize_payload", 16, lambda n: (_plan(n),)),
    ("rle_records", 2, lambda n: (_XM_WORDS[:4 * n], n)),
    ("plan_frames", 4, lambda n: (pure.seed_mixture(7, 0, 0)[0], _MIXTURE,
                                  n, True)),
    ("seed_mixture", 1, lambda n: (2012 + n, n, n)),
]


def _comparable(result, args):
    """A kernel's result as a value ``==`` can compare across backends."""
    if isinstance(result, SynthesisPlan):
        # The planner's contract includes where it leaves the state.
        return (result.kinds, result.values, result.lengths,
                result.total_words, args[0])
    return result


@requires_native
@pytest.mark.parametrize("name,size,build", [
    pytest.param(name, size, build, id=f"{name}-{size}")
    for name, crossover, build in _SIZED_CASES
    for size in sorted({0, 1, crossover - 1})])
def test_native_kernel_takes_c_at_every_size(native_backend, monkeypatch,
                                            name, size, build):
    args, native_args = build(size), build(size)
    want = _comparable(getattr(pure, name)(*args), args)
    calls = _sentinel(monkeypatch, name)
    got = _comparable(getattr(native_backend, name)(*native_args),
                      native_args)
    assert not calls, f"{name} must take the C path at size {size}"
    assert got == want


@requires_native
def test_planner_self_check_mismatch_forwards_to_pure(native_backend,
                                                      monkeypatch):
    # An interpreter whose random module draws differently from the
    # C planner: simulated by a C planner that leaves the state one
    # draw off.  The import-time self-check must catch it, and both
    # generator kernels must then forward to pure while the backend
    # stays native.
    c_planner = native_backend._native_plan

    def drifting(state, mixture, frame_count, have_previous):
        plan = c_planner(state, mixture, frame_count, have_previous)
        state[-1] -= 1
        return plan

    monkeypatch.setattr(native_backend, "_native_plan", drifting)
    _assert_self_check_routes_to_pure(native_backend, monkeypatch)


@requires_native
def test_seeding_self_check_mismatch_forwards_to_pure(native_backend,
                                                      monkeypatch):
    # The same for the seeding kernel: a C seeding that draws one
    # texture byte differently from Random must fail the self-check.
    c_seed = native_backend._native_seed

    def drifting(seed, motif_pool, pool_size):
        state, motifs, byte_pool = c_seed(seed, motif_pool, pool_size)
        return state, motifs, byte_pool[:-1] + (1,)

    monkeypatch.setattr(native_backend, "_native_seed", drifting)
    _assert_self_check_routes_to_pure(native_backend, monkeypatch)


def _assert_self_check_routes_to_pure(native_backend, monkeypatch):
    monkeypatch.setattr(native_backend, "_PLANNER_MATCHES_PURE",
                        native_backend._planner_matches_pure())
    assert native_backend._PLANNER_MATCHES_PURE is False

    seeded = _sentinel(monkeypatch, "seed_mixture")
    planned = _sentinel(monkeypatch, "plan_frames")
    with accel.using("native"):
        blob = generate_bitstream(size=DataSize.from_kb(16),
                                  seed=2012).file_bytes
        assert accel.backend_name() == "native"
    assert seeded, "a failed self-check must route seed_mixture to pure"
    assert planned, "a failed self-check must route plan_frames to pure"
    with accel.using("pure"):
        assert blob == generate_bitstream(size=DataSize.from_kb(16),
                                          seed=2012).file_bytes


@requires_native
def test_planner_self_check_passes_here(native_backend):
    # On the interpreters CI runs, the C draws are CPython's.
    assert native_backend._PLANNER_MATCHES_PURE is True


@requires_native
def test_native_guard_delegations(native_backend, monkeypatch):
    # Layouts outside the C kernels' fixed-width assumptions must fall
    # back to the arbitrary-precision pure forms, whatever the size.
    calls = _sentinel(monkeypatch, "lz77_tokens")
    native_backend.lz77_tokens(_BIG_DATA, 8, 6, 9, 8)  # min_match > 8
    assert calls

    calls = _sentinel(monkeypatch, "lz77_decode")
    native_backend.lz77_decode(_LZ_BODY, 0, 40, 10, 3)  # > 48-bit token
    assert calls

    calls = _sentinel(monkeypatch, "bitpack")
    # A width above 64 bits only fits the bigint accumulator.
    assert native_backend.bitpack([1 << 70, 1], [71, 1]) == \
        pure.bitpack([1 << 70, 1], [71, 1])
    assert calls

    # A COPY before the first frame reads before the start of the
    # output, which only pure's list-slice rules define.
    calls = _sentinel(monkeypatch, "synthesize_payload")
    plan = SynthesisPlan(41)
    plan.copy_previous(8)
    plan.fill(7, 64)
    native_backend.synthesize_payload(plan)
    assert calls

    # A word count past the end of the data is pure's to interpret.
    calls = _sentinel(monkeypatch, "rle_records")
    native_backend.rle_records(b"\x11\x22\x33\x44" * 4, 8)
    assert calls

    # A state C cannot take (not a 625-word array("I"), or an index
    # past the key) is pure's to accept or reject, an unsorted byte
    # table needs bisect's own probes, and an empty motif vocabulary
    # raises from choice(): all are pure's.
    calls = _sentinel(monkeypatch, "plan_frames")
    state = pure.seed_mixture(1, 0, 0)[0]
    as_list = list(state)
    native_backend.plan_frames(as_list, _MIXTURE, 8, True)
    assert calls
    calls.clear()
    for bad_state in (state[:-1], array("L", state),
                      state[:-1] + array("I", [625])):
        with pytest.raises((TypeError, ValueError)):
            native_backend.plan_frames(bad_state, _MIXTURE, 8, True)
        assert calls
        calls.clear()
    native_backend.plan_frames(
        state, _MIXTURE._replace(
            cum_weights=tuple(reversed(_MIXTURE.cum_weights))), 8, True)
    assert calls
    calls.clear()
    with pytest.raises(IndexError):
        native_backend.plan_frames(
            state, _MIXTURE._replace(motifs=(), utilization=1.0,
                                     zero_threshold=0.0,
                                     motif_threshold=1.0), 8, True)
    assert calls

    # Random hashes a float, str or bytes seed and abs()es a bool
    # through int's own path; a negative or float vocabulary size is
    # pure's empty range or TypeError.  Only pure's Random does those.
    calls = _sentinel(monkeypatch, "seed_mixture")
    for args in ((True, 8, 20), (2012.0, 8, 20), ("abc", 8, 20),
                 (b"abc", 8, 20), (2012, -3, 20), (2012, 8, -1)):
        assert native_backend.seed_mixture(*args) == \
            pure.seed_mixture(*args)
        assert calls
        calls.clear()
    with pytest.raises(TypeError):
        native_backend.seed_mixture(2012, 8.0, 20)
    assert calls


@requires_native
@pytest.mark.parametrize("name,args,error", [
    ("xmatch_tokens", (bytes(4000), 1500, 8), struct.error),
    ("huffman_pack", (bytes(range(10)), [0] * 4, [1] * 4), IndexError),
], ids=["xmatch-words-past-data", "huffman-short-tables"])
def test_native_short_arguments_delegate(native_backend, monkeypatch,
                                         name, args, error):
    # A word count past the data, or a code table of fewer than 256
    # entries, would send C reading past a buffer: pure answers both,
    # here by raising.
    calls = _sentinel(monkeypatch, name)
    with pytest.raises(error):
        getattr(native_backend, name)(*args)
    assert calls


@requires_native
@pytest.mark.parametrize("data", [b"", b"\x42", _BIG_DATA],
                         ids=["empty", "one-byte", "big"])
def test_codec_stages_take_c_at_every_size(native_backend, monkeypatch,
                                           data):
    # LZ78, Zip's byte-token stage and 7-zip's entropy stage have no
    # crossover: even an empty input costs the FFI call less than
    # pure's setup.
    names = ("lz78_pack", "lz78_decode", "lzbytes_pack", "lzbytes_decode",
             "lzma_pack", "lzma_decode")
    calls = {name: _sentinel(monkeypatch, name) for name in names}
    body = native_backend.lz78_pack(data, 1024)
    assert native_backend.lz78_decode(body, len(data), 1024) == data
    values, widths = pure.lz77_tokens(data, 16, 8, 4, 128)
    body = native_backend.lzbytes_pack(values, widths, (1 << 24) - 1)
    assert native_backend.lzbytes_decode(body, len(data)) == data
    body = native_backend.lzma_pack(values, widths, (1 << 24) - 1)
    assert native_backend.lzma_decode(body, len(data)) == data
    assert not any(calls.values())


@pytest.mark.parametrize("size", [0, 3, 16, 256, 4096])
def test_chunk_words_delegates_at_every_size(monkeypatch, size):
    # Regression sentinel: chunking a Python list is answered by the
    # pure reference on every backend — the list -> buffer conversion
    # costs more than any compiled or vectorised form saves.
    calls = _sentinel(monkeypatch, "chunk_words")
    for backend in _every_backend():
        calls.clear()
        backend.chunk_words(list(range(size)), 0, 41)
        assert calls, \
            f"{backend.name} chunk_words must delegate at size {size}"


@pytest.mark.parametrize("size", [0, 8, 512, 8192])
def test_words_to_bytes_delegates_at_every_size(monkeypatch, size):
    calls = _sentinel(monkeypatch, "words_to_bytes")
    for backend in _every_backend():
        calls.clear()
        backend.words_to_bytes([0x01020304] * size)
        assert calls, \
            f"{backend.name} words_to_bytes must delegate at size {size}"


@pytest.mark.parametrize("size", [0, 1, 8, 4096])
def test_huffman_code_table_never_delegates(monkeypatch, size):
    # The kernel builds its own histogram, so its work grows with the
    # input; native answers in C at every size, even the empty input.
    data = bytes(index % 7 for index in range(size))
    want = pure.huffman_code_table(data)
    calls = _sentinel(monkeypatch, "huffman_code_table")
    for backend in _every_backend():
        calls.clear()
        assert backend.huffman_code_table(data) == want
        assert bool(calls) == (backend.name == "pure"), \
            f"{backend.name} huffman_code_table at size {size}"


@pytest.mark.parametrize("words", [0, 1, 8, 4096])
def test_crc32c_words_never_delegates(monkeypatch, words):
    # The C fold builds no interleaved blob, so native answers in C at
    # every length, even the empty one.
    data = bytes(index % 251 for index in range(4 * words))
    want = pure.crc32c_words(data, 2, 0x1234)
    calls = _sentinel(monkeypatch, "crc32c_words")
    for backend in _every_backend():
        calls.clear()
        assert backend.crc32c_words(data, 2, 0x1234) == want
        assert bool(calls) == (backend.name == "pure"), \
            f"{backend.name} crc32c_words at {words} words"
