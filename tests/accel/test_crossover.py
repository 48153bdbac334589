"""Crossover sentinels: the native backend delegates exactly as measured.

Every native kernel either carries a size threshold below which the
pure implementation wins, or forwards to pure permanently because no
C form has been measured to pay for itself.  These tests wrap the pure
kernels in call recorders and pin the dispatch decision:

* below its crossover a kernel hands the call to pure,
* at/above the crossover it takes the C path (pure untouched),
* the permanent forwarders (``chunk_words``, ``words_to_bytes``,
  ``huffman_code_table``, ``match_lengths``) hand over at *every*
  size on every available backend — the regression this file exists
  to prevent is a backend being selected at a size where it loses;
* the C frame planner hands over when its import-time self-check
  finds the interpreter drawing differently.

The native section skips cleanly when the extension is not built.
"""

# The sentinel wrappers must patch the pure module directly, and the
# dispatch decisions under test live in the backend modules.
# repro-lint: disable=B804

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
_HUFF_CODES, _HUFF_LENGTHS = pure.huffman_code_table(
    [1 if symbol < 8 else 0 for symbol in range(256)])

# Well-formed streams for the decoder cases (built once from the pure
# encoders; the above-crossover output is checked against pure).
_XM_WORDS = b"\xAB\xCD\xEF\x01\x00\x00\x00\x00" * 64   # 128 words
_XM_BODY = pure.bitpack(*pure.xmatch_tokens(_XM_WORDS, 128, 8))
_LZ_DATA = bytes(range(64)) * 16                       # 1024 bytes
_LZ_BODY = pure.bitpack(*pure.lz77_tokens(_LZ_DATA, 10, 4, 3, 8))
_HUF_DATA = bytes(value & 7 for value in range(2048))
_HUF_BODY = pure.huffman_pack(_HUF_DATA, _HUFF_CODES, _HUFF_LENGTHS)
_HUF_TABLE = bytes(_HUFF_LENGTHS)
# Literal-heavy on purpose: distinct words keep the record stream
# longer than the native decode threshold (run records collapse to a
# few bytes and would sit below every cutover).
_RLE_DATA = bytes(range(256)) * 2
_RLE_RECORDS = pure.rle_records(_RLE_DATA, 128)

# (pure kernel name, below-crossover args, at/above-crossover args):
# args are passed identically to the native kernel and to the pure
# reference, so the above-crossover result can be checked against
# pure without trusting the recorder.  The FFI call costs well under a
# microsecond, so the below-crossover inputs here are tiny.
_NATIVE_CASES = [
    ("crc32c",
     (b"\x5a" * 2, 0),
     (b"\x5a" * 100, 0)),
    ("bitpack",
     ([1] * 4, [8] * 4),
     (list(range(64)), [8] * 64)),
    ("synthesize_payload",
     (_plan(8),),
     (_plan(16),)),
    ("rle_records",
     (b"\x11\x22\x33\x44", 1),
     (b"\x11\x22\x33\x44" * 2, 2)),
    ("xmatch_tokens",
     (b"\xab\xcd\xef\x01", 1, 8),
     (b"\xab\xcd\xef\x01" * 16, 16, 8)),
    ("huffman_pack",
     (bytes(value & 7 for value in range(100)),
      _HUFF_CODES, _HUFF_LENGTHS),
     (bytes(value & 7 for value in range(2048)),
      _HUFF_CODES, _HUFF_LENGTHS)),
    ("xmatch_decode",
     (_XM_BODY[:4], 0, 8),
     (_XM_BODY, 512, 8)),
    ("lz77_decode",
     (_LZ_BODY[:4], 0, 10, 4, 3),
     (_LZ_BODY, 1024, 10, 4, 3)),
    ("huffman_decode",
     (_HUF_BODY[:4], 0, _HUF_TABLE),
     (_HUF_BODY, 2048, _HUF_TABLE)),
    ("rle_decode",
     (_RLE_RECORDS[:8], 0),
     (_RLE_RECORDS, 512)),
]


def _check_crossover(backend, monkeypatch, name, below_args, above_args):
    reference = getattr(pure, name)
    want_above = reference(*above_args)
    kernel = getattr(backend, name)
    calls = _sentinel(monkeypatch, name)

    kernel(*below_args)
    assert calls, f"{name} must delegate to pure below its crossover"

    calls.clear()
    got_above = kernel(*above_args)
    assert not calls, \
        f"{name} must take the accelerated path at/above its crossover"
    # The accelerated path still has to agree with the reference.
    assert got_above == want_above


@pytest.mark.parametrize("name,below_args,above_args", _NATIVE_CASES,
                         ids=[case[0] for case in _NATIVE_CASES])
def test_native_kernel_crossover(native_backend, monkeypatch,
                                 name, below_args, above_args):
    _check_crossover(native_backend, monkeypatch, name, below_args,
                     above_args)


# lz77_tokens needs a sentinel variant of its own for native: the
# below-threshold input must be non-trivial enough that the pure path
# is observable, and the kernel also hands back wide-layout requests.


@requires_native
def test_native_lz77_crossover(native_backend, monkeypatch):
    _check_crossover(native_backend, monkeypatch, "lz77_tokens",
                     (b"\x42" * 8, 8, 4, 3, 8),
                     (_BIG_DATA, 8, 4, 3, 8))


_MIXTURE: FrameMixture = _FrameSynthesizer(BitstreamSpec())._mixture


@requires_native
def test_native_plan_frames_crossover(native_backend, monkeypatch):
    # The getstate/setstate round trip costs about three frames of
    # pure planning, so C takes over from four frames.
    calls = _sentinel(monkeypatch, "plan_frames")
    native_backend.plan_frames(Random(7), _MIXTURE, 3, True)
    assert calls, "plan_frames must delegate to pure below 4 frames"

    calls.clear()
    rng = Random(7)
    got = native_backend.plan_frames(rng, _MIXTURE, 4, True)
    assert not calls, "plan_frames must run in C from 4 frames"
    reference = Random(7)
    want = pure.plan_frames(reference, _MIXTURE, 4, True)
    assert (got.kinds, got.values, got.lengths) == \
        (want.kinds, want.values, want.lengths)
    assert rng.getstate() == reference.getstate()


@requires_native
def test_planner_self_check_mismatch_forwards_to_pure(native_backend,
                                                      monkeypatch):
    # An interpreter whose random module draws differently from the
    # C planner: simulated by a C planner that leaves the RNG one
    # draw off.  The import-time self-check must catch it, and the
    # planner must then forward to pure while the backend stays native.
    c_planner = native_backend._native_plan

    def drifting(rng, mixture, frame_count, have_previous):
        plan = c_planner(rng, mixture, frame_count, have_previous)
        rng.random()
        return plan

    monkeypatch.setattr(native_backend, "_native_plan", drifting)
    monkeypatch.setattr(native_backend, "_PLANNER_MATCHES_PURE",
                        native_backend._planner_matches_pure())
    assert native_backend._PLANNER_MATCHES_PURE is False

    calls = _sentinel(monkeypatch, "plan_frames")
    with accel.using("native"):
        blob = generate_bitstream(size=DataSize.from_kb(16),
                                  seed=2012).file_bytes
        assert accel.backend_name() == "native"
    assert calls, "a failed self-check must route plan_frames to pure"
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

    # A Random subclass may override the draws, an unsorted byte
    # table needs bisect's own probes, and an empty motif vocabulary
    # raises from choice(): all three are pure's.
    class Subclassed(Random):
        pass

    calls = _sentinel(monkeypatch, "plan_frames")
    native_backend.plan_frames(Subclassed(1), _MIXTURE, 8, True)
    assert calls
    calls.clear()
    native_backend.plan_frames(
        Random(1), _MIXTURE._replace(
            cum_weights=tuple(reversed(_MIXTURE.cum_weights))), 8, True)
    assert calls
    calls.clear()
    with pytest.raises(IndexError):
        native_backend.plan_frames(
            Random(1), _MIXTURE._replace(motifs=(), utilization=1.0,
                                         zero_threshold=0.0,
                                         motif_threshold=1.0), 8, True)
    assert calls


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


def test_huffman_code_table_always_delegates(monkeypatch):
    # The input is a fixed 256-bin histogram; the heap build is too
    # small for a compiled form to ever pay.
    calls = _sentinel(monkeypatch, "huffman_code_table")
    histogram = [0] * 256
    histogram[0] = 90
    histogram[7] = 10
    for backend in _every_backend():
        calls.clear()
        backend.huffman_code_table(histogram)
        assert calls, backend.name


@pytest.mark.parametrize("work", [(3, 8), (64, 512)],
                         ids=["small", "large"])
def test_match_lengths_always_delegates(monkeypatch, work):
    # The pure form's early-limit break usually ends the scan at the
    # first candidate on the LZ chain walk's same-prefix candidate
    # lists, so every backend answers with it at every size.
    count, limit = work
    calls = _sentinel(monkeypatch, "match_lengths")
    for backend in _every_backend():
        calls.clear()
        backend.match_lengths(_BIG_DATA, list(range(count)), 8192, limit)
        assert calls, f"{backend.name} match_lengths must delegate"
