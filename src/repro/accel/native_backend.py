"""Compiled-C backend for the datapath kernels.

Byte-identical to :mod:`repro.accel.pure`: the C kernels in
``repro/accel/_native/uparc_kernels.c`` emit the same tokens and
streams (same token layouts, same move-to-front order), fail at the
same error points and make the same MT19937 draws, and the
cross-backend digest and hypothesis suites pin the two together.
Most kernels follow the reference loop step for step; five are
restructured for speed and match it only in those outputs: 7-zip's
arithmetic coder (``lzma_pack``/``lzma_decode``) renormalises once
per symbol rather than once per bit, ``huffman_decode`` decodes up to
four codewords per 12-bit table lookup, and ``xmatch_decode`` and
``lz77_decode`` read each token's fields from one 8-byte load of the
stream (a 57-bit window) rather than field by field.
This module is the thin ctypes-free wrapper: it shapes arguments into
C buffers and maps decoder status codes back to the reference
:class:`~repro.errors.CorruptStreamError` messages.  Every C kernel
takes the C path at every input size: no size crossover hands small
inputs to pure, because no measured workload calls a kernel at a size
where one would pay.

Importing this module requires the compiled extension
(``python -m repro.accel._native.build`` or the ``native`` install
extra); :func:`repro.accel.native_available` probes for it and the
selection logic falls back to pure when it is missing.

Kernels in C: ``plan_frames`` (the generator's frame planner, drawing
from the caller's ``random.Random`` state), ``synthesize_payload``,
``crc32c``, ``crc32c_words`` (the configuration CRC's
word-plus-address fold), ``rle_records``, ``xmatch_tokens``,
``lz77_tokens``, ``bitpack``, ``huffman_code_table`` (histogram and
code table), ``huffman_pack``, the four decoders (``xmatch_decode``,
``lz77_decode``, ``huffman_decode``, ``rle_decode``), Zip's byte-token
stage (``lzbytes_pack``/``lzbytes_decode``), and the LZ78 and 7-zip
codec stages (``lz78_pack``/``lz78_decode``, the adaptive arithmetic
coder ``lzma_pack``/``lzma_decode``).

A kernel still hands a call to pure when the input leaves the C
types' domain (token widths past 64 bits, a capacity outside 2..64,
a word count past the data, a ``Random`` subclass, ...): these guards
keep the backend total over pure's input domain, whatever the size.

Kernels with no C form forward to pure: ``words_to_bytes``,
``bytes_to_words``, ``chunk_words``, ``equal_word_runs`` and
``zero_word_runs``.  On every measured workload they are either never
called under this backend or already as fast as a C port would make
them.

Every decoder reserves at most 1 MiB before it reads its body and
grows the buffer as the body decodes, so a header that declares a
huge length costs no more memory than the body really yields.

``plan_frames`` carries one more guard: importing this module plans a
short stream both ways and compares the ops and the final RNG state.
The C planner follows CPython 3.11's ``random`` algorithms; if the
running interpreter draws differently, the planner forwards to pure
for the whole process while every other kernel stays native.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from random import Random
from typing import List, Optional, Sequence, Tuple

from repro.accel import pure
from repro.accel._native import _uparc_native
from repro.accel.plan import FrameMixture, SynthesisPlan
from repro.errors import CorruptStreamError

name = "native"

ffi = _uparc_native.ffi
_lib = _uparc_native.lib
_lib.uparc_init()

# The C synthesis kernel reads the plan's array("I") values and
# lengths as uint32_t, which only holds where that typecode is 4 bytes.
_PLAN_ITEMS_ARE_32_BIT = array("I").itemsize == 4

# Decoder status codes, mirroring uparc_kernels.c.
_OK = 0
_ERR_EXHAUSTED = 1
_ERR_EMPTY_DICT = 2
_ERR_DICT_RANGE = 3
_ERR_MATCH_TYPE = 4
_ERR_ZERO_RUN = 5
_ERR_BACKREF = 6
_ERR_CODEWORD = 7
_ERR_CODE_TABLE = 8
_ERR_EMPTY_TABLE = 9
_ERR_LITERAL = 10
_ERR_EXTENSION = 11
_ERR_RUN_WORD = 12
_ERR_NOMEM = 13
_ERR_LZ78_INDEX = 14
_ERR_AC_RANGE = 15
_ERR_AC_EXHAUSTED = 16
_ERR_LZMA_BACKREF = 17
_ERR_LZMA_OVERRUN = 18
_ERR_SYMBOL = 19
_ERR_CONTROL_BYTE = 20
_ERR_MATCH_TOKEN = 21
_ERR_LITERAL_TOKEN = 22

_STATIC_MESSAGES = {
    _ERR_EXHAUSTED: "bit stream exhausted",
    _ERR_EMPTY_DICT: "match against empty dictionary",
    _ERR_ZERO_RUN: "zero-length zero run",
    _ERR_CODEWORD: "invalid Huffman codeword",
    _ERR_CODE_TABLE: "invalid Huffman code table",
    _ERR_EMPTY_TABLE: "empty Huffman table for non-empty data",
    _ERR_LITERAL: "truncated literal record",
    _ERR_EXTENSION: "truncated run extension",
    _ERR_RUN_WORD: "truncated run word",
    _ERR_AC_RANGE: "arithmetic decoder out of range",
    _ERR_AC_EXHAUSTED: "arithmetic code stream exhausted",
    _ERR_LZMA_BACKREF: "back-reference before start",
    _ERR_LZMA_OVERRUN: "LZMA-like stream overran length",
    _ERR_CONTROL_BYTE: "missing control byte",
    _ERR_MATCH_TOKEN: "truncated match token",
    _ERR_LITERAL_TOKEN: "truncated literal token",
}

# An LZ78 dictionary bound past the input's size never triggers a
# reset, so clamping it into int64 range changes nothing pure does.
_MAX_ENTRIES_CAP = 1 << 62


def _raise_status(status: int, detail: int) -> None:
    """Map a decoder status code to the reference exception."""
    if status == _ERR_NOMEM:
        raise MemoryError("native decoder allocation failed")
    if status == _ERR_DICT_RANGE:
        raise CorruptStreamError(
            f"dictionary location {detail} out of range")
    if status == _ERR_MATCH_TYPE:
        raise CorruptStreamError(f"invalid match-type code {detail}")
    if status == _ERR_BACKREF:
        raise CorruptStreamError(
            f"LZ77 back-reference beyond start (offset {detail})")
    if status == _ERR_LZ78_INDEX:
        raise CorruptStreamError(f"LZ78 index {detail} out of range")
    raise CorruptStreamError(_STATIC_MESSAGES[status])


def _take_buffer(out_ptr, out_len) -> bytes:
    """Copy and free a decoder's malloc'd output buffer."""
    pointer = out_ptr[0]
    length = out_len[0]
    if pointer == ffi.NULL or length <= 0:
        if pointer != ffi.NULL:
            _lib.uparc_buffer_free(pointer)
        return b""
    result = bytes(ffi.buffer(pointer, length))
    _lib.uparc_buffer_free(pointer)
    return result


def _typed_view(sequence, typecode: str, ctype: str):
    """``sequence`` as a C array of ``ctype``; None if an item won't fit."""
    if not (isinstance(sequence, array) and sequence.typecode == typecode):
        try:
            sequence = array(typecode, sequence)
        except OverflowError:
            return None
    return ffi.from_buffer(ctype, sequence)


# For buffers the C side fills before anything reads them: no zero
# fill, so pages past what a kernel writes are never touched.
_new_unzeroed = ffi.new_allocator(should_clear_after_alloc=False)


def _token_arrays(values, widths, count: int) -> "pure.TokenStream":
    """C token buffers -> the ``(array('Q'), array('B'))`` contract."""
    value_array = array("Q")
    width_array = array("B")
    if count:
        value_array.frombytes(ffi.buffer(values, 8 * count))
        width_array.frombytes(ffi.buffer(widths, count))
    return value_array, width_array


# -- CRC ----------------------------------------------------------------


def crc32c(data: bytes, crc: int = 0) -> int:
    return _lib.uparc_crc32c(ffi.from_buffer("uint8_t[]", data),
                             len(data), crc)


def crc32c_words(data: bytes, address: int, crc: int = 0) -> int:
    return _lib.uparc_crc32c_words(ffi.from_buffer("uint8_t[]", data),
                                   len(data) // 4, address, crc)


# -- pure forwarders ----------------------------------------------------
# No measured workload gains from a C form of these (see the module
# docstring); they stay defs so the backend mirrors every pure kernel.


def words_to_bytes(words: Sequence[int]) -> bytes:
    return pure.words_to_bytes(words)


def bytes_to_words(data: bytes) -> List[int]:
    return pure.bytes_to_words(data)


def equal_word_runs(data: bytes, word_count: int) -> List[int]:
    return pure.equal_word_runs(data, word_count)


def zero_word_runs(data: bytes,
                   word_count: int) -> Tuple[List[int], List[int]]:
    return pure.zero_word_runs(data, word_count)


def chunk_words(block: Sequence[int], offset: int,
                frame_words: int) -> Tuple[List[List[int]], List[int]]:
    return pure.chunk_words(block, offset, frame_words)


# -- word streams -------------------------------------------------------


def _native_plan(rng: Random, mixture: FrameMixture, frame_count: int,
                 have_previous: bool) -> Optional[SynthesisPlan]:
    """The C planner, or None when ``mixture`` does not fit its types.

    Every check runs before the RNG is read, and ``rng`` only advances
    (one ``setstate``) once the C loop has succeeded, so a ``None``
    leaves it exactly where pure will start.
    """
    plan = SynthesisPlan(mixture.frame_words)  # raises as pure's does
    pool = mixture.byte_pool
    hi = len(pool) - 1
    motifs = mixture.motifs
    cum = mixture.cum_weights
    if hi < 0 or len(cum) < hi or not motifs:
        return None  # pure raises (or indexes) as the reference does
    if not all(low <= high for low, high in zip(cum, cum[1:hi])):
        # C looks texture bytes up by counting, which equals
        # bisect_right's probes only over an ascending table.
        return None
    try:
        motif_buffer = array("I", motifs)
        pool_buffer = array("B", pool)
        cum_buffer = array("d", cum)
        mix = ffi.new("uparc_mixture *", {
            "utilization": mixture.utilization,
            "zero_threshold": mixture.zero_threshold,
            "motif_threshold": mixture.motif_threshold,
            "copy_threshold": mixture.copy_threshold,
            "sparse_threshold": mixture.sparse_threshold,
            "zero_success": mixture.zero_success or 0.0,
            "motif_success": mixture.motif_success or 0.0,
            "copy_success": mixture.copy_success or 0.0,
            "cum_total": mixture.cum_total,
            "zero_geometric": mixture.zero_success is not None,
            "motif_geometric": mixture.motif_success is not None,
            "copy_geometric": mixture.copy_success is not None,
        })
    except (OverflowError, TypeError):
        return None  # motifs past 32 bits, pool bytes past 8: pure's ints
    version, internal, gauss_next = rng.getstate()
    state = array("I", internal)
    frame_words = mixture.frame_words
    cap = frame_count * frame_words
    # Every op covers at least one word, so cap ops always fit.
    kinds = ffi.new("uint8_t[]", cap)
    values = ffi.new("uint32_t[]", cap)
    lengths = ffi.new("uint32_t[]", cap)
    count = _lib.uparc_plan_frames(
        ffi.from_buffer("uint32_t[]", state), mix, frame_count,
        frame_words, have_previous,
        ffi.from_buffer("uint32_t[]", motif_buffer), len(motifs),
        ffi.from_buffer("uint8_t[]", pool_buffer),
        ffi.from_buffer("double[]", cum_buffer), hi,
        kinds, values, lengths, cap)
    if count < 0:
        return None
    rng.setstate((version, tuple(state), gauss_next))
    plan.kinds.frombytes(ffi.buffer(kinds, count))
    plan.values.frombytes(ffi.buffer(values, 4 * count))
    plan.lengths.frombytes(ffi.buffer(lengths, 4 * count))
    plan.total_words = cap
    return plan


def _planner_matches_pure() -> bool:
    """Plan a short stream both ways; True when C reproduces pure.

    CPython's ``_randbelow`` (behind ``choice``) has changed between
    versions, and the C planner follows 3.11's.  The probe runs two
    successive plans (the second carries the previous frame) over a
    five-motif mixture, so ``_randbelow`` rejects and every op kind
    and draw type occurs; the ops and the final RNG state must both
    match.
    """
    weights = [1.0 / (rank + 1) for rank in range(20)]
    cum_weights = tuple(accumulate(weights))
    mixture = FrameMixture(
        frame_words=41, utilization=0.8, zero_threshold=0.25,
        motif_threshold=0.43, copy_threshold=0.52,
        sparse_threshold=0.95, zero_success=1.0 / 6.8,
        motif_success=1.0 / 1.281, copy_success=None,
        motifs=(0x00010200, 0x40000001, 0x00300000, 0x08000080, 0x2),
        byte_pool=tuple(range(7, 247, 12)), cum_weights=cum_weights,
        cum_total=cum_weights[-1])
    reference = Random(2012)
    candidate = Random(2012)
    for have_previous in (False, True):
        want = pure.plan_frames(reference, mixture, 12, have_previous)
        got = _native_plan(candidate, mixture, 12, have_previous)
        if got is None or (got.kinds, got.values, got.lengths,
                           got.total_words) != (
                want.kinds, want.values, want.lengths, want.total_words):
            return False
    return candidate.getstate() == reference.getstate()


# Checked once per process; on a mismatch plan_frames forwards to pure.
_PLANNER_MATCHES_PURE = _planner_matches_pure()


def plan_frames(rng: Random, mixture: FrameMixture, frame_count: int,
                have_previous: bool) -> SynthesisPlan:
    # type() is exact on purpose: a Random subclass may override the
    # draws, which only calling its methods honours.
    if (type(rng) is not Random or not _PLANNER_MATCHES_PURE
            or not _PLAN_ITEMS_ARE_32_BIT):
        return pure.plan_frames(rng, mixture, frame_count, have_previous)
    plan = _native_plan(rng, mixture, frame_count, have_previous)
    if plan is None:
        return pure.plan_frames(rng, mixture, frame_count, have_previous)
    return plan


def synthesize_payload(plan: SynthesisPlan) -> bytes:
    if not _PLAN_ITEMS_ARE_32_BIT:
        return pure.synthesize_payload(plan)
    out = ffi.new("uint8_t[]", 4 * plan.total_words)
    written = _lib.uparc_synthesize_payload(
        ffi.from_buffer("uint8_t[]", plan.kinds),
        ffi.from_buffer("uint32_t[]", plan.values),
        ffi.from_buffer("uint32_t[]", plan.lengths),
        min(len(plan.kinds), len(plan.values), len(plan.lengths)),
        plan.frame_words, out, plan.total_words)
    if written < 0:  # a COPY before the first frame: pure's slice rules
        return pure.synthesize_payload(plan)
    return bytes(ffi.buffer(out, 4 * written))


def rle_records(data: bytes, word_count: int) -> bytes:
    if 4 * word_count > len(data):
        return pure.rle_records(data, word_count)
    out = ffi.new("uint8_t[]", 5 * word_count + 8)
    written = _lib.uparc_rle_records(
        ffi.from_buffer("uint8_t[]", data), word_count, out)
    return bytes(ffi.buffer(out, written))


# -- bit packing --------------------------------------------------------


def bitpack(values: Sequence[int], widths: Sequence[int]) -> bytes:
    value_buffer = _typed_view(values, "Q", "uint64_t[]")
    width_buffer = _typed_view(widths, "B", "uint8_t[]")
    if value_buffer is None or width_buffer is None:
        # Values beyond 64 bits: only the bigint pure form packs
        # them (no kernel emits such tokens; property tests do).
        return pure.bitpack(values, widths)
    # Pure zips the two sequences, so the shorter one bounds the scan.
    count = min(len(values), len(widths))
    # At most 8 bytes a token, plus the writer's 8-byte store slack.
    out = _new_unzeroed("uint8_t[]", 8 * count + 8)
    written = _lib.uparc_bitpack(value_buffer, width_buffer, count, out)
    if written < 0:  # a width above 64: pure handles arbitrary widths
        return pure.bitpack(values, widths)
    return bytes(ffi.buffer(out, written))


def huffman_code_table(data: bytes) -> Tuple[List[int], List[int]]:
    codes = ffi.new("uint64_t[256]")
    lengths = ffi.new("uint8_t[256]")
    if _lib.uparc_huffman_code_table(ffi.from_buffer("uint8_t[]", data),
                                     len(data), codes, lengths) < 0:
        return pure.huffman_code_table(data)  # codes past 64 bits
    return ffi.unpack(codes, 256), ffi.unpack(lengths, 256)


def huffman_pack(data: bytes, codes: Sequence[int],
                 lengths: Sequence[int]) -> bytes:
    longest = max(lengths, default=0)
    # C indexes both tables by byte value: a short one is pure's, which
    # raises IndexError once a byte indexes past its end.
    if longest > 64 or len(codes) < 256 or len(lengths) < 256:
        return pure.huffman_pack(data, codes, lengths)
    # The longest code per byte, plus the writer's 8-byte store slack.
    out = _new_unzeroed("uint8_t[]", (longest * len(data) + 7) // 8 + 8)
    written = _lib.uparc_huffman_pack(
        ffi.from_buffer("uint8_t[]", data), len(data),
        ffi.from_buffer("uint64_t[]", array("Q", codes)),
        ffi.from_buffer("uint8_t[]", array("B", lengths)), out)
    return bytes(ffi.buffer(out, written))


# -- token scans --------------------------------------------------------


def xmatch_tokens(data: bytes, word_count: int,
                  capacity: int) -> "pure.TokenStream":
    if not 2 <= capacity <= 64 or 4 * word_count > len(data):
        # A word count past the data is pure's to reject.
        return pure.xmatch_tokens(data, word_count, capacity)
    values = _new_unzeroed("uint64_t[]", word_count + 8)
    widths = _new_unzeroed("uint8_t[]", word_count + 8)
    count = _lib.uparc_xmatch_tokens(
        ffi.from_buffer("uint8_t[]", data), word_count, capacity,
        values, widths)
    if count < 0:  # the mask code no longer ranks matches by byte count
        return pure.xmatch_tokens(data, word_count, capacity)
    return _token_arrays(values, widths, count)


def lz77_tokens(data: bytes, window_bits: int, length_bits: int,
                min_match: int, max_chain: int) -> "pure.TokenStream":
    length = len(data)
    # min_match > 8: the prefix key must fit a uint64; wide layouts
    # (match token past 64 bits) only exist in property tests; pure
    # raises on a negative field width or chain length.
    if (min_match > 8 or min_match < 1 or window_bits < 0
            or length_bits < 0 or max_chain < 0
            or window_bits + length_bits + 1 > 64):
        return pure.lz77_tokens(data, window_bits, length_bits,
                                min_match, max_chain)
    values = _new_unzeroed("uint64_t[]", length + 1)
    widths = _new_unzeroed("uint8_t[]", length + 1)
    head = _new_unzeroed("int32_t[]", 1 << 15)
    prev = _new_unzeroed("int32_t[]", length)
    count = _lib.uparc_lz77_tokens(
        ffi.from_buffer("uint8_t[]", data), length, window_bits,
        length_bits, min_match, max_chain, values, widths, head, prev)
    return _token_arrays(values, widths, count)


# -- bit-serial decoders ------------------------------------------------


def xmatch_decode(body: bytes, output_length: int,
                  capacity: int) -> bytes:
    if not 2 <= capacity <= 64:
        return pure.xmatch_decode(body, output_length, capacity)
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    detail = ffi.new("int64_t *")
    status = _lib.uparc_xmatch_decode(
        ffi.from_buffer("uint8_t[]", body), len(body), output_length,
        capacity, out_ptr, out_len, detail)
    if status != _OK:
        _raise_status(status, detail[0])
    return _take_buffer(out_ptr, out_len)


def lz77_decode(body: bytes, output_length: int, window_bits: int,
                length_bits: int, min_match: int) -> bytes:
    # The 48-bit cap keeps a match token within the reference's 6-byte
    # refill (so it raises exactly where the bits run out, as C does)
    # and within the C reader's 57-bit window.
    if window_bits + length_bits + 1 > 48:
        return pure.lz77_decode(body, output_length, window_bits,
                                length_bits, min_match)
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    detail = ffi.new("int64_t *")
    status = _lib.uparc_lz77_decode(
        ffi.from_buffer("uint8_t[]", body), len(body), output_length,
        window_bits, length_bits, min_match, out_ptr, out_len, detail)
    if status != _OK:
        _raise_status(status, detail[0])
    return _take_buffer(out_ptr, out_len)


def huffman_decode(body: bytes, output_length: int,
                   lengths: bytes) -> bytes:
    if len(lengths) < 256:
        return pure.huffman_decode(body, output_length, lengths)
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    status = _lib.uparc_huffman_decode(
        ffi.from_buffer("uint8_t[]", body), len(body), output_length,
        ffi.from_buffer("uint8_t[]", bytes(lengths)), out_ptr, out_len)
    if status != _OK:
        _raise_status(status, 0)
    return _take_buffer(out_ptr, out_len)


def rle_decode(records: bytes, output_length: int) -> bytes:
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    status = _lib.uparc_rle_decode(
        ffi.from_buffer("uint8_t[]", records), len(records),
        output_length, out_ptr, out_len)
    if status != _OK:
        _raise_status(status, 0)
    return _take_buffer(out_ptr, out_len)


# -- LZ78, Zip and 7-zip codec stages -----------------------------------


def lz78_pack(data: bytes, max_entries: int) -> bytes:
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    status = _lib.uparc_lz78_pack(
        ffi.from_buffer("uint8_t[]", data), len(data),
        min(max_entries, _MAX_ENTRIES_CAP), out_ptr, out_len)
    if status != _OK:
        _raise_status(status, 0)
    return _take_buffer(out_ptr, out_len)


def lz78_decode(body: bytes, output_length: int, max_entries: int) -> bytes:
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    detail = ffi.new("int64_t *")
    status = _lib.uparc_lz78_decode(
        ffi.from_buffer("uint8_t[]", body), len(body), output_length,
        min(max_entries, _MAX_ENTRIES_CAP), out_ptr, out_len, detail)
    if status != _OK:
        _raise_status(status, detail[0])
    return _take_buffer(out_ptr, out_len)


def lzma_pack(values: Sequence[int], widths: Sequence[int],
              match_mask: int) -> bytes:
    value_buffer = _typed_view(values, "Q", "uint64_t[]")
    width_buffer = _typed_view(widths, "B", "uint8_t[]")
    if (value_buffer is None or width_buffer is None
            or not 0 <= match_mask < 1 << 64):
        # Items or a mask past the C types: pure's bigints take them
        # (the 7-zip codec never passes such a stream).
        return pure.lzma_pack(values, widths, match_mask)
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    status = _lib.uparc_lzma_pack(
        value_buffer, width_buffer, min(len(values), len(widths)),
        match_mask, out_ptr, out_len)
    if status == _ERR_SYMBOL:
        return pure.lzma_pack(values, widths, match_mask)  # raises
    if status != _OK:
        _raise_status(status, 0)
    return _take_buffer(out_ptr, out_len)


def lzma_decode(body: bytes, output_length: int) -> bytes:
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    status = _lib.uparc_lzma_decode(
        ffi.from_buffer("uint8_t[]", body), len(body), output_length,
        out_ptr, out_len)
    if status != _OK:
        _raise_status(status, 0)
    return _take_buffer(out_ptr, out_len)


def lzbytes_pack(values: Sequence[int], widths: Sequence[int],
                 match_mask: int) -> bytes:
    value_buffer = _typed_view(values, "Q", "uint64_t[]")
    width_buffer = _typed_view(widths, "B", "uint8_t[]")
    if (value_buffer is None or width_buffer is None
            or not 0 <= match_mask < 1 << 64 or len(widths) < len(values)):
        # Past the C types, or pure's IndexError on a missing width.
        return pure.lzbytes_pack(values, widths, match_mask)
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    status = _lib.uparc_lzbytes_pack(
        value_buffer, width_buffer, len(values), match_mask, out_ptr,
        out_len)
    if status == _ERR_SYMBOL:
        return pure.lzbytes_pack(values, widths, match_mask)  # raises
    if status != _OK:
        _raise_status(status, 0)
    return _take_buffer(out_ptr, out_len)


def lzbytes_decode(body: bytes, output_length: int) -> bytes:
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    status = _lib.uparc_lzbytes_decode(
        ffi.from_buffer("uint8_t[]", body), len(body), output_length,
        out_ptr, out_len)
    if status != _OK:
        _raise_status(status, 0)
    return _take_buffer(out_ptr, out_len)
