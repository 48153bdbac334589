"""Compiled-C backend for the datapath kernels.

Byte-identical to :mod:`repro.accel.pure` by construction — the C
kernels in ``repro/accel/_native/uparc_kernels.c`` port the reference
loops statement for statement (same token layouts, same move-to-front
order, same error detection points), and the cross-backend digest and
hypothesis suites pin the two together.  This module is the thin ctypes
-free wrapper: it shapes arguments into C buffers, maps decoder status
codes back to the reference :class:`~repro.errors.CorruptStreamError`
messages, and keeps a small-input crossover per kernel below which the
tuned pure form wins (the FFI call plus buffer setup costs ~1 µs).

Importing this module requires the compiled extension
(``python -m repro.accel._native.build`` or the ``native`` install
extra); :func:`repro.accel.native_available` probes for it and the
selection logic falls back to pure when it is missing.

Kernels with no C form (the word-run scans, word packing, frame
chunking, ``match_lengths``, the Huffman code table) forward to pure:
on every measured workload they are either never called under this
backend or already as fast as a C port would make them.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

from repro.accel import pure
from repro.accel._native import _uparc_native
from repro.accel.plan import SynthesisPlan
from repro.errors import CorruptStreamError

name = "native"

ffi = _uparc_native.ffi
_lib = _uparc_native.lib
_lib.uparc_init()

# Below these sizes the pure kernels win (the crossover sentinels in
# tests/accel/test_crossover.py pin the ordering on both sides);
# outputs are identical either way, so the cutovers only affect speed.
# The FFI call itself costs well under 1 µs, so the measured
# crossovers are 2-16 elements for everything except the kernels that
# pay a fixed Python-side conversion per call (huffman_pack converts
# two 256-entry code tables; lz77_tokens allocates its 128 KB
# hash-head array) and rle_decode, whose pure form does one bulk
# ``word * run`` per record and only loses once the stream holds a few
# dozen records.
_CRC_MIN_BYTES = 4
_BITPACK_MIN_TOKENS = 8
_HUFF_PACK_MIN_BYTES = 128
_XMATCH_MIN_WORDS = 2
_LZ77_MIN_BYTES = 16
_XMATCH_DEC_MIN_BYTES = 8
_LZ77_DEC_MIN_BYTES = 8
_HUFF_DEC_MIN_BYTES = 8
_RLE_DEC_MIN_BYTES = 64
_SYNTH_MIN_WORDS = 16
_RLE_MIN_WORDS = 2

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
}


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


def _token_arrays(values, widths, count: int) -> "pure.TokenStream":
    """C token buffers -> the ``(array('Q'), array('B'))`` contract."""
    value_array = array("Q")
    width_array = array("B")
    if count:
        value_array.frombytes(bytes(ffi.buffer(values, 8 * count)))
        width_array.frombytes(bytes(ffi.buffer(widths, count)))
    return value_array, width_array


# -- CRC ----------------------------------------------------------------


def crc32c(data: bytes, crc: int = 0) -> int:
    if len(data) < _CRC_MIN_BYTES:
        return pure.crc32c(data, crc)
    return _lib.uparc_crc32c(ffi.from_buffer("uint8_t[]", data),
                             len(data), crc & 0xFFFFFFFF)


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


def match_lengths(data: bytes, candidates: Sequence[int],
                  position: int, limit: int) -> List[int]:
    return pure.match_lengths(data, candidates, position, limit)


def chunk_words(block: Sequence[int], offset: int,
                frame_words: int) -> Tuple[List[List[int]], List[int]]:
    return pure.chunk_words(block, offset, frame_words)


def huffman_code_table(frequencies: Sequence[int]
                       ) -> Tuple[List[int], List[int]]:
    return pure.huffman_code_table(frequencies)


# -- word streams -------------------------------------------------------


def synthesize_payload(plan: SynthesisPlan) -> bytes:
    if plan.total_words < _SYNTH_MIN_WORDS or not _PLAN_ITEMS_ARE_32_BIT:
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
    if word_count < _RLE_MIN_WORDS or 4 * word_count > len(data):
        return pure.rle_records(data, word_count)
    out = ffi.new("uint8_t[]", 5 * word_count + 8)
    written = _lib.uparc_rle_records(
        ffi.from_buffer("uint8_t[]", data), word_count, out)
    return bytes(ffi.buffer(out, written))


# -- bit packing --------------------------------------------------------


def bitpack(values: Sequence[int], widths: Sequence[int]) -> bytes:
    count = len(values)
    if count < _BITPACK_MIN_TOKENS:
        return pure.bitpack(values, widths)
    if isinstance(values, array) and values.typecode == "Q":
        value_buffer = ffi.from_buffer("uint64_t[]", values)
    else:
        try:
            value_buffer = ffi.from_buffer(
                "uint64_t[]", array("Q", values))
        except OverflowError:
            # Values beyond 64 bits: only the bigint pure form packs
            # them (no kernel emits such tokens; property tests do).
            return pure.bitpack(values, widths)
    if isinstance(widths, array) and widths.typecode == "B":
        width_buffer = ffi.from_buffer("uint8_t[]", widths)
    else:
        try:
            width_buffer = ffi.from_buffer(
                "uint8_t[]", array("B", widths))
        except OverflowError:
            return pure.bitpack(values, widths)
    out = ffi.new("uint8_t[]", 8 * count + 1)
    written = _lib.uparc_bitpack(value_buffer, width_buffer, count, out)
    if written < 0:  # a width above 64: pure handles arbitrary widths
        return pure.bitpack(values, widths)
    return bytes(ffi.buffer(out, written))


def huffman_pack(data: bytes, codes: Sequence[int],
                 lengths: Sequence[int]) -> bytes:
    if len(data) < _HUFF_PACK_MIN_BYTES or max(lengths) > 64:
        return pure.huffman_pack(data, codes, lengths)
    out = ffi.new("uint8_t[]", 8 * len(data) + 1)
    written = _lib.uparc_huffman_pack(
        ffi.from_buffer("uint8_t[]", data), len(data),
        ffi.from_buffer("uint64_t[]", array("Q", codes)),
        ffi.from_buffer("uint8_t[]", array("B", lengths)), out)
    return bytes(ffi.buffer(out, written))


# -- token scans --------------------------------------------------------


def xmatch_tokens(data: bytes, word_count: int,
                  capacity: int) -> "pure.TokenStream":
    if word_count < _XMATCH_MIN_WORDS or not 2 <= capacity <= 64:
        return pure.xmatch_tokens(data, word_count, capacity)
    values = ffi.new("uint64_t[]", word_count + 8)
    widths = ffi.new("uint8_t[]", word_count + 8)
    count = _lib.uparc_xmatch_tokens(
        ffi.from_buffer("uint8_t[]", data), word_count, capacity,
        values, widths)
    return _token_arrays(values, widths, count)


def lz77_tokens(data: bytes, window_bits: int, length_bits: int,
                min_match: int, max_chain: int) -> "pure.TokenStream":
    length = len(data)
    # min_match > 8: the prefix key must fit a uint64; wide layouts
    # (match token past 64 bits) only exist in property tests.
    if (length < _LZ77_MIN_BYTES or min_match > 8 or min_match < 1
            or window_bits + length_bits + 1 > 64):
        return pure.lz77_tokens(data, window_bits, length_bits,
                                min_match, max_chain)
    values = ffi.new("uint64_t[]", length + 1)
    widths = ffi.new("uint8_t[]", length + 1)
    head = ffi.new("int32_t[]", 1 << 15)
    prev = ffi.new("int32_t[]", length)
    count = _lib.uparc_lz77_tokens(
        ffi.from_buffer("uint8_t[]", data), length, window_bits,
        length_bits, min_match, max_chain, values, widths, head, prev)
    return _token_arrays(values, widths, count)


# -- bit-serial decoders ------------------------------------------------


def xmatch_decode(body: bytes, output_length: int,
                  capacity: int) -> bytes:
    if len(body) < _XMATCH_DEC_MIN_BYTES or not 2 <= capacity <= 64:
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
    # The 48-bit cap keeps the C bit reader's refill horizon aligned
    # with the reference's 6-byte refill (same exhaustion points).
    if (len(body) < _LZ77_DEC_MIN_BYTES
            or window_bits + length_bits + 1 > 48):
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
    if len(body) < _HUFF_DEC_MIN_BYTES or len(lengths) < 256:
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
    if len(records) < _RLE_DEC_MIN_BYTES:
        return pure.rle_decode(records, output_length)
    out_ptr = ffi.new("uint8_t **")
    out_len = ffi.new("int64_t *")
    status = _lib.uparc_rle_decode(
        ffi.from_buffer("uint8_t[]", records), len(records),
        output_length, out_ptr, out_len)
    if status != _OK:
        _raise_status(status, 0)
    return _take_buffer(out_ptr, out_len)
