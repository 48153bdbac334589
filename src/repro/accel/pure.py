"""Pure-Python reference backend for the datapath kernels.

Every kernel here is the *definition* of its operation: the native
backend must reproduce these outputs byte-for-byte, and the
cross-backend equivalence tests enforce that.  The implementations are
the tuned stdlib forms that previously lived inline in the bitstream
and compress modules (slicing-by-8 CRC, bulk ``struct`` packing,
slice-compare scan loops), so selecting this backend is never a
regression over the pre-accel code.

This module must stay importable with no third-party dependencies and
must not import from ``repro.bitstream`` (those modules dispatch into
``repro.accel``, so importing them back would be a cycle).  Only
``repro.errors`` is allowed.
"""

from __future__ import annotations

import heapq
import struct
from array import array
from bisect import bisect
from collections import Counter, defaultdict, deque
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import BitstreamFormatError, CorruptStreamError

from repro.accel.plan import COPY, FILL, FrameMixture, SynthesisPlan

name = "pure"

#: Token stream: parallel typed arrays of (value, bit-width) pairs.
#: ``array("Q")`` values / ``array("B")`` widths, the same typed-array
#: layout :class:`SynthesisPlan` uses.
TokenStream = Tuple["array", "array"]

_POLY_REFLECTED = 0x82F63B78  # CRC-32C (Castagnoli), reflected form


def _build_tables() -> List[List[int]]:
    """Slicing-by-8 tables; ``tables[0]`` is the classic byte table."""
    table0 = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY_REFLECTED
            else:
                crc >>= 1
        table0.append(crc)
    tables = [table0]
    for _ in range(7):
        previous = tables[-1]
        tables.append([(previous[byte] >> 8)
                       ^ table0[previous[byte] & 0xFF]
                       for byte in range(256)])
    return tables


CRC_TABLES = _build_tables()
CRC_TABLE = CRC_TABLES[0]  # the one-table form, used by the tail loop


def crc32c(data: bytes, crc: int = 0) -> int:
    """Plain CRC-32C over a byte string (incremental via ``crc``).

    The byte loop uses slicing-by-8: eight parallel tables fold eight
    input bytes per iteration, the standard software trick for
    multi-GB/s CRC rates.  It computes exactly the same polynomial
    division as the one-table form (the tail loop below *is* the
    one-table form), just with 8x fewer Python-level iterations.
    """
    crc ^= 0xFFFFFFFF
    t0, t1, t2, t3, t4, t5, t6, t7 = CRC_TABLES
    length = len(data)
    index = 0
    end8 = length - (length & 7)
    while index < end8:
        low = crc ^ (data[index]
                     | (data[index + 1] << 8)
                     | (data[index + 2] << 16)
                     | (data[index + 3] << 24))
        high = (data[index + 4]
                | (data[index + 5] << 8)
                | (data[index + 6] << 16)
                | (data[index + 7] << 24))
        crc = (t7[low & 0xFF] ^ t6[(low >> 8) & 0xFF]
               ^ t5[(low >> 16) & 0xFF] ^ t4[low >> 24]
               ^ t3[high & 0xFF] ^ t2[(high >> 8) & 0xFF]
               ^ t1[(high >> 16) & 0xFF] ^ t0[high >> 24])
        index += 8
    while index < length:
        crc = (crc >> 8) ^ t0[(crc ^ data[index]) & 0xFF]
        index += 1
    return crc ^ 0xFFFFFFFF


# crc32c_words folds through this private binding, not the public
# name, so a wrapper installed on the public kernel (the layer
# tracer's) counts only the dispatched crc32c calls.
_crc32c = crc32c


def crc32c_words(data: bytes, address: int, crc: int = 0) -> int:
    """CRC-32C over each big-endian word of ``data``, ``address`` after each.

    The configuration CRC's register-write convention: every 4-byte
    word is followed by one byte carrying the register address.  The
    reference builds that interleaved ``[4 data bytes][address byte]``
    blob in bulk (strided slice assignment) and folds it with one
    :func:`crc32c` call.  ``len(data)`` is a multiple of 4 (the
    dispatch function checks it).
    """
    count = len(data) // 4
    if count == 0:
        return crc
    blob = bytearray([address]) * (count * 5)
    blob[0::5] = data[0::4]
    blob[1::5] = data[1::4]
    blob[2::5] = data[2::4]
    blob[3::5] = data[3::4]
    return _crc32c(bytes(blob), crc)


def words_to_bytes(words: Sequence[int]) -> bytes:
    """Big-endian word serialization (configuration byte order)."""
    try:
        return struct.pack(">%dI" % len(words), *words)
    except struct.error:
        for word in words:
            if not 0 <= word < (1 << 32):
                raise OverflowError(
                    f"word {word:#x} does not fit in 32 bits"
                ) from None
        raise


def bytes_to_words(data: bytes) -> List[int]:
    """Big-endian word deserialization."""
    if len(data) % 4:
        raise BitstreamFormatError(
            f"byte stream length {len(data)} is not word aligned"
        )
    return list(struct.unpack(">%dI" % (len(data) // 4), data))


#: Words in a generator state: MT19937's 624-word key, then its index.
STATE_WORDS = 625


def seed_mixture(seed: Union[int, float, str, bytes, bytearray],
                 motif_pool: int,
                 pool_size: int) -> Tuple["array", Tuple[int, ...],
                                          Tuple[int, ...]]:
    """The generator's seeded state, routing motifs and texture bytes.

    ``Random(seed)``, then ``motif_pool`` motifs (each ``randint(2,
    10)`` bits, set at ``randrange(32)``) and ``pool_size`` texture
    bytes (``randrange(1, 256)``), in that order.  Returns the
    :data:`STATE_WORDS`-word ``array("I")`` state that
    :func:`plan_frames` continues from (``getstate()``'s key and
    index), the motifs and the byte pool.
    """
    rng = Random(seed)
    randrange = rng.randrange
    motifs = []
    for _ in range(motif_pool):
        word = 0
        for _bit in range(rng.randint(2, 10)):
            word |= 1 << randrange(32)
        motifs.append(word)
    byte_pool = tuple(randrange(1, 256) for _ in range(pool_size))
    return array("I", rng.getstate()[1]), tuple(motifs), byte_pool


def plan_frames(state: "array", mixture: FrameMixture, frame_count: int,
                have_previous: bool) -> SynthesisPlan:
    """Plan ``frame_count`` frames of payload ops, advancing ``state``.

    ``state`` is a :func:`seed_mixture` state (the MT19937 key and
    index); the draws continue from it and it is updated in place.
    One blank-frame gate per frame, then category draws until the
    frame is full.  The RNG draw *sequence* is the contract: every
    branch consumes exactly the draws the historical per-method
    generator did, so all seeded payloads stay bit-identical, and
    ``state`` ends where that generator left it.  ``have_previous``
    says whether a frame was already planned (a COPY needs one).
    """
    # Seeded only to construct; setstate replaces the whole state.
    rng = Random(0)
    rng.setstate((3, tuple(state), None))
    random = rng.random
    choice = rng.choice
    getrandbits = rng.getrandbits
    plan = SynthesisPlan(mixture.frame_words)
    # Ops accumulate in plain lists (cheapest append) and become
    # the plan's typed arrays in one bulk constructor at the end.
    kinds: list = []
    values: list = []
    lengths: list = []
    kind_append = kinds.append
    value_append = values.append
    length_append = lengths.append
    target = mixture.frame_words
    utilization = mixture.utilization
    zero_threshold = mixture.zero_threshold
    motif_threshold = mixture.motif_threshold
    copy_threshold = mixture.copy_threshold
    sparse_threshold = mixture.sparse_threshold
    zero_success = mixture.zero_success
    motif_success = mixture.motif_success
    copy_success = mixture.copy_success
    motifs = mixture.motifs
    pool = mixture.byte_pool
    cum = mixture.cum_weights
    total = mixture.cum_total
    hi = len(pool) - 1
    for _ in range(frame_count):
        if random() >= utilization:
            # Blank (unconfigured) frame.
            kind_append(FILL)
            value_append(0)
            length_append(target)
            have_previous = True
            continue
        position = 0
        while position < target:
            draw = random()
            if draw < zero_threshold:
                length = 1
                if zero_success is not None:
                    while random() > zero_success:
                        length += 1
                remaining = target - position
                if length > remaining:
                    length = remaining
                kind_append(FILL)
                value_append(0)
                length_append(length)
                position += length
            elif draw < motif_threshold:
                motif = choice(motifs)
                length = 1
                if motif_success is not None:
                    while random() > motif_success:
                        length += 1
                remaining = target - position
                if length > remaining:
                    length = remaining
                kind_append(FILL)
                value_append(motif)
                length_append(length)
                position += length
            elif draw < copy_threshold and have_previous:
                length = 1
                if copy_success is not None:
                    while random() > copy_success:
                        length += 1
                remaining = target - position
                if length > remaining:
                    length = remaining
                kind_append(COPY)
                value_append(0)
                length_append(length)
                position += length
            elif draw < sparse_threshold or not have_previous:
                # Texture word: skewed-byte configuration content.
                word = 0
                for _byte in range(4):
                    if random() < 0.45:
                        word <<= 8
                    else:
                        word = (word << 8) \
                            | pool[bisect(cum, random() * total, 0, hi)]
                kind_append(FILL)
                value_append(word)
                length_append(1)
                position += 1
            else:
                kind_append(FILL)  # dense LUT word
                value_append(getrandbits(32))
                length_append(1)
                position += 1
        have_previous = True
    plan.kinds = array("B", kinds)
    plan.values = array("I", values)
    plan.lengths = array("I", lengths)
    # Every frame sums to exactly frame_words (runs are clipped at
    # the boundary), so the total is closed-form.
    plan.total_words = frame_count * target
    state[:] = array("I", rng.getstate()[1])
    return plan


def synthesize_payload(plan: SynthesisPlan) -> bytes:
    """Materialise a frame-synthesis plan into packed payload bytes.

    COPY ops read from exactly ``frame_words`` words behind the write
    position — the previous frame at the same intra-frame offset — so
    an op walk over the growing output list resolves them directly.
    """
    out: List[int] = []
    append = out.append
    extend = out.extend
    frame_words = plan.frame_words
    for kind, value, length in zip(plan.kinds, plan.values, plan.lengths):
        if kind == COPY:
            start = len(out) - frame_words
            extend(out[start:start + length])
        elif length == 1:
            append(value)
        else:
            extend([value] * length)
    return struct.pack(">%dI" % len(out), *out)


def equal_word_runs(data: bytes, word_count: int) -> List[int]:
    """Lengths of maximal equal-32-bit-word runs covering the stream.

    ``sum(result) == word_count``; a lone word is a run of 1.
    """
    runs: List[int] = []
    append = runs.append
    index = 0
    while index < word_count:
        base = data[index * 4:index * 4 + 4]
        run = 1
        while (index + run < word_count
               and data[(index + run) * 4:(index + run) * 4 + 4] == base):
            run += 1
        append(run)
        index += run
    return runs


def zero_word_runs(data: bytes,
                   word_count: int) -> Tuple[List[int], List[int]]:
    """Starts and lengths of maximal all-zero 32-bit-word runs."""
    starts: List[int] = []
    lengths: List[int] = []
    zero = b"\x00\x00\x00\x00"
    index = 0
    while index < word_count:
        if data[index * 4:index * 4 + 4] == zero:
            run = 1
            while (index + run < word_count
                   and data[(index + run) * 4:(index + run) * 4 + 4] == zero):
                run += 1
            starts.append(index)
            lengths.append(run)
            index += run
        else:
            index += 1
    return starts, lengths


def chunk_words(block: Sequence[int], offset: int,
                frame_words: int) -> Tuple[List[List[int]], List[int]]:
    """Split ``block[offset:]`` into full frames plus the leftover tail."""
    frames: List[List[int]] = []
    append = frames.append
    count = len(block)
    position = offset
    while count - position >= frame_words:
        append(list(block[position:position + frame_words]))
        position += frame_words
    return frames, list(block[position:])


# -- bit packing ------------------------------------------------------


def bitpack(values: Sequence[int], widths: Sequence[int]) -> bytes:
    """MSB-first concatenation of ``(value, width)`` tokens.

    The final byte is zero-padded.  Widths must be in [0, 64] and
    values must fit their width.
    """
    buf = bytearray()
    append = buf.append
    acc = 0
    bits = 0
    for value, width in zip(values, widths):
        acc = (acc << width) | value
        bits += width
        while bits >= 8:
            bits -= 8
            append((acc >> bits) & 0xFF)
        acc &= (1 << bits) - 1
    if bits:
        append((acc << (8 - bits)) & 0xFF)
    return bytes(buf)


# -- X-MatchPRO token scan --------------------------------------------

#: Match-type static prefix code: mask bit i set => byte i matched,
#: byte 0 being the most-significant byte of the big-endian word.
#: This table *defines* the X-MatchPRO stream format; the codec in
#: ``repro.compress.xmatchpro`` re-exports it for its decoder.
XMATCH_MASK_CODES: Dict[int, Tuple[int, int]] = {
    0b1111: (0b0, 1),
    0b1110: (0b1000, 4),
    0b1101: (0b1001, 4),
    0b1011: (0b1010, 4),
    0b0111: (0b1011, 4),
    0b1100: (0b11000, 5),
    0b1010: (0b11001, 5),
    0b1001: (0b11010, 5),
    0b0110: (0b11011, 5),
    0b0101: (0b11100, 5),
    0b0011: (0b11101, 5),
}
_XM_MIN_MATCH_BYTES = 2
_XM_RUN_MAX = 255  # zero-run counter chunk: 0xFF means "255 and continue"


def _build_xmatch_tables() -> Tuple[List[int], List[int], List[int]]:
    """``score/code/length`` per 4-bit match mask (-1 score = no code)."""
    score = [-1] * 16
    code = [0] * 16
    length = [0] * 16
    for mask, (value, bits) in XMATCH_MASK_CODES.items():
        matched = bin(mask).count("1")
        if matched >= _XM_MIN_MATCH_BYTES:
            score[mask] = matched * 8 - bits
            code[mask] = value
            length[mask] = bits
    return score, code, length


_XM_SCORE, _XM_CODE, _XM_CLEN = _build_xmatch_tables()

# Zero-byte SWAR masks per dictionary size n: the dictionary is packed
# into one big int (entry l occupies bits [32l, 32l+32)), and
# ``~((X & M7F) + M7F | X) & HI`` marks every zero byte of
# ``X = packed ^ word * REP`` — i.e. every matching byte of every
# entry — in 5 big-int ops, independent of the dictionary size.
_XM_REP = [((1 << (32 * n)) - 1) // 0xFFFFFFFF for n in range(65)]
_XM_M7F = [rep * 0x7F7F7F7F for rep in _XM_REP]
_XM_HI = [rep * 0x80808080 for rep in _XM_REP]

#: 0x80808080-masked SWAR lane -> 4-bit match mask (bit i = byte i,
#: byte 0 = MSB, which sits in the lane's *high* marker bit).
_XM_LANE = {
    ((mask & 1) and 0x80000000) | ((mask & 2) and 0x00800000)
    | ((mask & 4) and 0x00008000) | ((mask & 8) and 0x00000080): mask
    for mask in range(16)
}


def _xmatch_index_bits(dictionary_size: int) -> int:
    """Phased-binary width for indices ``0..dictionary_size - 1``."""
    width = 1
    while (1 << width) < dictionary_size:
        width += 1
    return width


def xmatch_tokens(data: bytes, word_count: int,
                  capacity: int) -> TokenStream:
    """X-MatchPRO token stream over ``data[:word_count * 4]``.

    Implements the full coding loop of
    :class:`repro.compress.xmatchpro.XMatchProCodec` — zero-run
    tokens, full/partial dictionary matches with move-to-front update,
    and misses — returning the ``(values, widths)`` token arrays whose
    :func:`bitpack` is the codec's bit stream.  Long zero-run tokens
    are split across array entries (the bit stream is a plain
    concatenation, so the split is invisible); every width is <= 58
    bits.

    Two scan-level collapses keep the hot loop short:

    * a repeated non-zero word is a full match at location 0 with a
      move-to-front no-op, so a run of equal words is a run of
      all-zero token bits emitted in bulk (zero runs in between do
      not touch the dictionary, so the collapse crosses them);
    * the dictionary lives packed in one big int and a SWAR zero-byte
      scan finds every matching byte of every entry at once — a miss
      (the most common token) is detected without a per-entry loop.
    """
    words = list(struct.unpack(">%dI" % word_count,
                               data[:word_count * 4]))
    starts, lengths = zero_word_runs(data, word_count)
    zero_runs = dict(zip(starts, lengths))
    values = array("Q")
    widths = array("B")
    av = values.append
    aw = widths.append
    score_of = _XM_SCORE
    code_of = _XM_CODE
    clen_of = _XM_CLEN
    lane_mask = _XM_LANE
    rep = _XM_REP
    m7f = _XM_M7F
    hi = _XM_HI
    packed = 0         # dictionary entry l at bits [32l, 32l + 32)
    members = set()     # entries are always distinct (see _insert)
    size = 0
    ibits = 1
    full0_width = 3     # width of a full match at location 0
    previous = -1
    index = 0
    while index < word_count:
        word = words[index]
        if word == 0:
            run = zero_runs[index]
            index += run
            token = 0b10
            width = 2
            while run >= _XM_RUN_MAX:
                token = (token << 8) | _XM_RUN_MAX
                width += 8
                if width >= 56:
                    av(token)
                    aw(width)
                    token = 0
                    width = 0
                run -= _XM_RUN_MAX
            av((token << 8) | run)
            aw(width + 8)
            continue
        if word == previous:
            # Equal run: each repeat is the all-zero-bit full-match-
            # at-location-0 token; emit the zero bits in bulk.
            run = 1
            while index + run < word_count and words[index + run] == word:
                run += 1
            index += run
            total = run * full0_width
            while total >= 48:
                av(0)
                aw(48)
                total -= 48
            if total:
                av(0)
                aw(total)
            continue
        previous = word
        index += 1
        if word in members:
            # Full match: locate the all-zero lane (entries are
            # distinct, so exactly one lane cancels).
            lanes = packed ^ (word * rep[size])
            location = 0
            while lanes & 0xFFFFFFFF:
                lanes >>= 32
                location += 1
            av(location << 1)
            aw(2 + ibits)
            if location:
                keep = (1 << (32 * location)) - 1
                packed = ((((packed >> (32 * (location + 1)))
                            << (32 * location))
                           | (packed & keep)) << 32) | word
            continue
        if size:
            lanes = packed ^ (word * rep[size])
            marks = ~((lanes & m7f[size]) + m7f[size] | lanes) & hi[size]
        else:
            marks = 0
        if marks:
            best_location = -1
            best_score = -1
            best_mask = 0
            location = 0
            scan = marks
            while scan:
                lane = scan & 0x80808080
                if lane:
                    mask = lane_mask[lane]
                    points = score_of[mask]
                    if points > best_score:
                        best_score = points
                        best_location = location
                        best_mask = mask
                scan >>= 32
                location += 1
            if best_score >= 0:
                mask = best_mask
                token = ((best_location << clen_of[mask])
                         | code_of[mask])
                width = 1 + ibits + clen_of[mask]
                if not mask & 1:
                    token = (token << 8) | (word >> 24)
                    width += 8
                if not mask & 2:
                    token = (token << 8) | ((word >> 16) & 0xFF)
                    width += 8
                if not mask & 4:
                    token = (token << 8) | ((word >> 8) & 0xFF)
                    width += 8
                if not mask & 8:
                    token = (token << 8) | (word & 0xFF)
                    width += 8
                av(token)
                aw(width)
                old = (packed >> (32 * best_location)) & 0xFFFFFFFF
                members.discard(old)
                members.add(word)
                keep = (1 << (32 * best_location)) - 1
                packed = ((((packed >> (32 * (best_location + 1)))
                            << (32 * best_location))
                           | (packed & keep)) << 32) | word
                continue
        # Miss: raw 32-bit word, inserted at the dictionary front.
        av((0b11 << 32) | word)
        aw(34)
        members.add(word)
        packed = (packed << 32) | word
        if size < capacity:
            size += 1
            if size > 1:
                ibits = _xmatch_index_bits(size)
                full0_width = 2 + ibits
        else:
            old = (packed >> (32 * capacity)) & 0xFFFFFFFF
            members.discard(old)
            packed &= (1 << (32 * capacity)) - 1
    return values, widths


# -- LZ77 token scan --------------------------------------------------


def lz77_tokens(data: bytes, window_bits: int, length_bits: int,
                min_match: int, max_chain: int) -> TokenStream:
    """LZSS token stream: hash-chain search plus greedy tokenisation.

    Implements the coding loop of
    :class:`repro.compress.lz77.Lz77Codec`: every position is indexed
    into a ``min_match``-byte-prefix hash chain (``max_chain`` most
    recent occurrences), candidates in the window are probed
    most-recent-first, the probe stops after the first candidate that
    reaches the length limit, and the first candidate reaching the
    best length wins.  Tokens are ``1 | offset-1 | length-min_match``
    (``1 + window_bits + length_bits`` wide) for matches and
    ``0 | byte`` (9 bits) for literals.  The Zip and 7-zip byte-LZ
    stage parses with the same kernel.
    """
    window = 1 << window_bits
    max_match = min_match + (1 << length_bits) - 1
    match_flag = 1 << (window_bits + length_bits)
    match_width = 1 + window_bits + length_bits
    values = array("Q")
    widths = array("B")
    av = values.append
    aw = widths.append
    chains: Dict[bytes, deque] = defaultdict(
        lambda: deque(maxlen=max_chain))
    length = len(data)
    position = 0
    while position < length:
        best_length = 0
        best_offset = 0
        if position + min_match <= length:
            chain = chains.get(data[position:position + min_match])
            if chain:
                window_start = position - window
                limit = min(max_match, length - position)
                for candidate in reversed(chain):
                    if candidate < window_start:
                        break  # chains only age: all older are out too
                    run = 0
                    while (run < limit
                           and data[candidate + run] == data[position + run]):
                        run += 1
                    if run > best_length:
                        best_length = run
                        best_offset = position - candidate
                    if run == limit:
                        break
        if best_length >= min_match:
            av(match_flag
               | ((best_offset - 1) << length_bits)
               | (best_length - min_match))
            aw(match_width)
            end = position + best_length
            while position < end:
                if position + min_match <= length:
                    chains[data[position:position + min_match]] \
                        .append(position)
                position += 1
        else:
            av(data[position])
            aw(9)
            if position + min_match <= length:
                chains[data[position:position + min_match]] \
                    .append(position)
            position += 1
    return values, widths


# -- Huffman tables and packing ---------------------------------------


def huffman_code_table(data: bytes) -> Tuple[List[int], List[int]]:
    """Canonical Huffman ``(codes, lengths)`` for the bytes of ``data``.

    Code lengths come from the classic two-least-weights merge over
    the byte histogram, with the deterministic tie-break
    :mod:`repro.compress.huffman` has always used (insertion order
    over symbol-sorted leaves); canonical codewords are assigned in
    ``(length, symbol)`` order.  Absent symbols have length 0.
    """
    frequencies = [0] * 256
    for symbol, count in Counter(data).items():
        frequencies[symbol] = count
    codes = [0] * 256
    lengths = [0] * 256
    symbols = [symbol for symbol in range(256) if frequencies[symbol]]
    if not symbols:
        return codes, lengths
    if len(symbols) == 1:
        lengths[symbols[0]] = 1
        return codes, lengths
    heap: List[Tuple[int, int, List[int]]] = [
        (frequencies[symbol], order, [symbol])
        for order, symbol in enumerate(symbols)
    ]
    heapq.heapify(heap)
    tiebreak = len(symbols)
    while len(heap) > 1:
        weight_1, _, symbols_1 = heapq.heappop(heap)
        weight_2, _, symbols_2 = heapq.heappop(heap)
        merged = symbols_1 + symbols_2
        for symbol in merged:
            lengths[symbol] += 1
        heapq.heappush(heap, (weight_1 + weight_2, tiebreak, merged))
        tiebreak += 1
    code = 0
    previous_length = 0
    for length, symbol in sorted(
            (lengths[symbol], symbol) for symbol in symbols):
        code <<= length - previous_length
        codes[symbol] = code
        code += 1
        previous_length = length
    return codes, lengths


def huffman_pack(data: bytes, codes: Sequence[int],
                 lengths: Sequence[int]) -> bytes:
    """Encode ``data`` through a 256-entry code table and bit-pack it.

    Equivalent to :func:`bitpack` over one ``(codes[b], lengths[b])``
    token per input byte (zero-padded final byte), fused into a single
    accumulator loop.
    """
    buf = bytearray()
    append = buf.append
    acc = 0
    bits = 0
    for byte in data:
        width = lengths[byte]
        acc = (acc << width) | codes[byte]
        bits += width
        while bits >= 8:
            bits -= 8
            append((acc >> bits) & 0xFF)
        acc &= (1 << bits) - 1
    if bits:
        append((acc << (8 - bits)) & 0xFF)
    return bytes(buf)


# -- RLE record emission ----------------------------------------------

# Record format constants (the codec in ``repro.compress.rle`` keeps
# its own copies for the decoder; the golden-stream digests pin both).
_RLE_MAX_LITERALS = 0x80
_RLE_MIN_RUN = 2
_RLE_MAX_BASE_RUN = 0x7F + _RLE_MIN_RUN


def rle_records(data: bytes, word_count: int) -> bytes:
    """Word-RLE record stream (no header) over ``data[:word_count*4]``.

    Control byte < 0x80 announces ``n + 1`` literal words; >= 0x80 a
    run of ``control - 0x80 + 2`` repeats with 0xFF-extension bytes
    for longer runs — the exact record emission of
    :class:`repro.compress.rle.RleCodec`.
    """
    out = bytearray()
    literals: List[bytes] = []
    index = 0
    for run in equal_word_runs(data, word_count):
        word = data[index * 4:index * 4 + 4]
        index += run
        if run >= _RLE_MIN_RUN:
            if literals:
                _rle_flush_literals(out, literals)
            while run >= _RLE_MIN_RUN:
                base = min(run, _RLE_MAX_BASE_RUN)
                out.append(0x80 + (base - _RLE_MIN_RUN))
                remaining = run - base
                if base == _RLE_MAX_BASE_RUN:
                    while remaining >= 0xFF:
                        out.append(0xFF)
                        remaining -= 0xFF
                    out.append(remaining)
                    remaining = 0
                out += word
                run = remaining
            if run == 1:
                out.append(0)  # single literal record
                out += word
        else:
            literals.append(word)
            if len(literals) == _RLE_MAX_LITERALS:
                _rle_flush_literals(out, literals)
    if literals:
        _rle_flush_literals(out, literals)
    return bytes(out)


def _rle_flush_literals(out: bytearray, literals: List[bytes]) -> None:
    while literals:
        chunk = literals[:_RLE_MAX_LITERALS]
        del literals[:_RLE_MAX_LITERALS]
        out.append(len(chunk) - 1)
        for word in chunk:
            out += word


# -- bit-serial decoders ----------------------------------------------
#
# The decompress loops of the four decompressor-library codecs.  They
# are sequential by construction (every token's position depends on
# every previous token); the native backend runs the same state
# machines in C.  Each kernel decodes
# the *body* of a stream — header parsing and final length policy stay
# in the codec — and raises :class:`~repro.errors.CorruptStreamError`
# with the codec's historical messages at the historical points of
# failure, whichever backend runs.

_XM_ZERO_TUPLE = b"\x00\x00\x00\x00"

#: Decoder peek table for the match-type code: at most 5 bits, so one
#: 5-bit window lookup replaces the bit-by-bit prefix walk.  ``None``
#: marks the two unassigned 5-bit patterns (selectors 6 and 7 under
#: the ``11`` prefix).
_XM_MASK_PEEK: List[Optional[Tuple[int, int]]] = [None] * 32
for _mask, (_code, _length) in XMATCH_MASK_CODES.items():
    for _pad in range(1 << (5 - _length)):
        _XM_MASK_PEEK[(_code << (5 - _length)) | _pad] = (_mask, _length)
del _mask, _code, _length, _pad

#: Unmatched-byte positions per match mask, in stream order.
_XM_LITERAL_LANES: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(index for index in range(4) if not (mask >> index) & 1)
    for mask in range(16)
)


def xmatch_decode(body: bytes, output_length: int,
                  capacity: int) -> bytes:
    """Decode an X-MatchPRO token stream body.

    Inverse of :func:`xmatch_tokens` + :func:`bitpack`:
    ``output_length`` is the word-aligned body length (original length
    minus the raw tail the codec stores in its header).  The returned
    bytes may overshoot ``output_length`` when the final zero-run
    token is oversized — the codec's length-mismatch policy decides
    what that means, so the overshoot is returned as-is.

    The inline bit cursor holds at least ``bits`` valid low bits of
    ``acc`` (higher bits are stale and masked off on refill).  One
    refill per loop covers any fixed-layout token — a miss is 34 bits,
    a match at most 1 + 6 + 5 + 16 = 28 — so the token parse runs
    without per-field reader calls; zero runs refill per 8-bit chunk.
    Exhaustion checks mirror the historical per-field reads exactly
    (same error, same point of failure).
    """
    mask_peek = _XM_MASK_PEEK
    literal_bytes = _XM_LITERAL_LANES
    index_width = [_xmatch_index_bits(size) if size else 1
                   for size in range(capacity + 1)]
    index_mask = [(1 << width) - 1 for width in index_width]
    from_bytes = int.from_bytes
    out = bytearray()
    dictionary: List[bytes] = []
    acc = 0
    bits = 0
    position = 0
    body_len = len(body)
    while len(out) < output_length:
        if bits < 42:
            take = body_len - position
            if take > 6:
                take = 6
            if take:
                acc = ((acc & ((1 << bits) - 1)) << (take * 8)) \
                    | from_bytes(body[position:position + take], "big")
                position += take
                bits += take * 8
        if not bits:
            raise CorruptStreamError("bit stream exhausted")
        bits -= 1
        if not (acc >> bits) & 1:  # '0': dictionary match
            size = len(dictionary)
            if not size:
                raise CorruptStreamError("match against empty dictionary")
            width = index_width[size]
            if width > bits:
                raise CorruptStreamError("bit stream exhausted")
            bits -= width
            location = (acc >> bits) & index_mask[size]
            if location >= size:
                raise CorruptStreamError(
                    f"dictionary location {location} out of range"
                )
            if bits >= 5:
                peek = (acc >> (bits - 5)) & 0b11111
            else:
                peek = (acc & ((1 << bits) - 1)) << (5 - bits)
            entry = mask_peek[peek]
            if entry is None:
                # Both unassigned patterns start '11'; the decoder
                # only reaches the 3-bit selector with 5 bits left.
                if bits < 5:
                    raise CorruptStreamError("bit stream exhausted")
                raise CorruptStreamError(
                    f"invalid match-type code {peek & 0b111}"
                )
            mask, width = entry
            if width > bits:
                raise CorruptStreamError("bit stream exhausted")
            bits -= width
            matched = dictionary[location]
            if mask == 0b1111:
                word_bytes = matched
            else:
                word = bytearray(matched)
                for byte_index in literal_bytes[mask]:
                    if bits < 8:
                        raise CorruptStreamError("bit stream exhausted")
                    bits -= 8
                    word[byte_index] = (acc >> bits) & 0xFF
                word_bytes = bytes(word)
            out += word_bytes
            del dictionary[location]
            dictionary.insert(0, word_bytes)
        else:
            if not bits:
                raise CorruptStreamError("bit stream exhausted")
            bits -= 1
            if not (acc >> bits) & 1:  # '10': zero run
                run = 0
                while True:
                    if bits < 8:
                        take = body_len - position
                        if take > 6:
                            take = 6
                        if take:
                            acc = ((acc & ((1 << bits) - 1))
                                   << (take * 8)) \
                                | from_bytes(
                                    body[position:position + take],
                                    "big")
                            position += take
                            bits += take * 8
                        if bits < 8:
                            raise CorruptStreamError(
                                "bit stream exhausted")
                    bits -= 8
                    chunk = (acc >> bits) & 0xFF
                    run += chunk
                    if chunk != _XM_RUN_MAX:
                        break
                if run == 0:
                    raise CorruptStreamError("zero-length zero run")
                out += _XM_ZERO_TUPLE * run
            else:  # '11': miss
                if bits < 32:
                    raise CorruptStreamError("bit stream exhausted")
                bits -= 32
                word_bytes = ((acc >> bits)
                              & 0xFFFFFFFF).to_bytes(4, "big")
                out += word_bytes
                dictionary.insert(0, word_bytes)
                if len(dictionary) > capacity:
                    dictionary.pop()
    return bytes(out)


def lz77_decode(body: bytes, output_length: int, window_bits: int,
                length_bits: int, min_match: int) -> bytes:
    """Decode an LZSS token stream body (inverse of
    :func:`lz77_tokens` + :func:`bitpack`).

    Copies are resolved against the growing output, byte-serially for
    self-overlapping matches.  A corrupt final match may overshoot
    ``output_length``; the overshoot is returned as-is for the codec's
    length check to reject.
    """
    window_mask = (1 << window_bits) - 1
    length_mask = (1 << length_bits) - 1
    # Worst-case token: a match (1 + window + length bits) or a
    # literal (9 bits), whichever is wider.
    token_bits = max(1 + window_bits + length_bits, 9)
    out = bytearray()
    append = out.append
    acc = 0
    bits = 0
    position = 0
    body_len = len(body)
    while len(out) < output_length:
        if bits < token_bits:
            take = body_len - position
            if take > 6:
                take = 6
            if take:
                acc = ((acc & ((1 << bits) - 1)) << (take * 8)) \
                    | int.from_bytes(body[position:position + take],
                                     "big")
                position += take
                bits += take * 8
        if not bits:
            raise CorruptStreamError("bit stream exhausted")
        bits -= 1
        if (acc >> bits) & 1:  # match token
            if window_bits > bits:
                raise CorruptStreamError("bit stream exhausted")
            bits -= window_bits
            offset = ((acc >> bits) & window_mask) + 1
            if length_bits > bits:
                raise CorruptStreamError("bit stream exhausted")
            bits -= length_bits
            run = ((acc >> bits) & length_mask) + min_match
            start = len(out) - offset
            if start < 0:
                raise CorruptStreamError(
                    f"LZ77 back-reference beyond start (offset {offset})"
                )
            if offset >= run:
                out += out[start:start + run]
            else:
                for step in range(run):
                    append(out[start + step])  # self-overlapping
        else:
            if bits < 8:
                raise CorruptStreamError("bit stream exhausted")
            bits -= 8
            append((acc >> bits) & 0xFF)
    return bytes(out)


_HUF_MAX_CODE_LENGTH = 32
_HUF_PEEK_BITS = 12  # primary decode-table window


def huffman_decode(body: bytes, output_length: int,
                   lengths: bytes) -> bytes:
    """Decode a canonical-Huffman body against a 256-byte length table.

    ``lengths[symbol]`` is the code length declared in the stream
    header (0 = absent symbol); codewords are reassigned canonically
    in ``(length, symbol)`` order, exactly as the encoder assigned
    them.  A declared table whose short codes overflow their own bit
    width (an over-subscribed Kraft sum — only possible in a corrupt
    stream) is rejected as corrupt.
    """
    ordered = sorted((lengths[symbol], symbol)
                     for symbol in range(256) if lengths[symbol])
    if not ordered:
        raise CorruptStreamError("empty Huffman table for non-empty data")
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for length, symbol in ordered:
        code <<= (length - previous_length)
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    # Primary table: the next ``peek`` bits (zero-padded near the
    # stream end — canonical codes are prefix-free, so a lookup that
    # lands on a code no longer than the real bits left is
    # unambiguous) index straight to ``(length << 8) | symbol``.
    # Codes longer than the window (rare: implies > 2^12 spread in
    # symbol frequencies) fall back to the historical bit-by-bit walk
    # over the (length, code) map.
    max_length = ordered[-1][0]
    peek = min(_HUF_PEEK_BITS, max_length)
    table = [0] * (1 << peek)
    for symbol, (code, length) in codes.items():
        if length <= peek:
            if code >> length:
                raise CorruptStreamError("invalid Huffman code table")
            base = code << (peek - length)
            entry = (length << 8) | symbol
            for pad in range(1 << (peek - length)):
                table[base + pad] = entry
    decode_map = {(length, code): symbol
                  for symbol, (code, length) in codes.items()}
    out = bytearray()
    append = out.append
    acc = 0
    bits = 0
    position = 0
    body_len = len(body)
    while len(out) < output_length:
        if bits < peek:
            take = body_len - position
            if take > 6:
                take = 6
            if take:
                acc = ((acc & ((1 << bits) - 1)) << (take * 8)) \
                    | int.from_bytes(body[position:position + take],
                                     "big")
                position += take
                bits += take * 8
        if bits >= peek:
            entry = table[(acc >> (bits - peek)) & ((1 << peek) - 1)]
        else:
            entry = table[((acc & ((1 << bits) - 1))
                           << (peek - bits)) & ((1 << peek) - 1)]
        length = entry >> 8
        if entry and length <= bits:
            bits -= length
            append(entry & 0xFF)
            continue
        # Long code, or the stream ran dry mid-codeword: replay the
        # historical bit-by-bit walk for exact error parity.
        code = 0
        length = 0
        while True:
            if not bits:
                if position < body_len:
                    acc = body[position]
                    position += 1
                    bits = 8
                else:
                    raise CorruptStreamError("bit stream exhausted")
            bits -= 1
            code = (code << 1) | ((acc >> bits) & 1)
            length += 1
            if length > _HUF_MAX_CODE_LENGTH:
                raise CorruptStreamError("invalid Huffman codeword")
            symbol = decode_map.get((length, code))
            if symbol is not None:
                append(symbol)
                break
    return bytes(out)


def rle_decode(records: bytes, output_length: int) -> bytes:
    """Decode a word-RLE record stream (inverse of :func:`rle_records`).

    Decodes until ``output_length`` bytes are produced or the records
    run out; anything after that is container padding (e.g. the
    Manager word-aligns compressed payloads in BRAM) and must be
    ignored.  An oversized final run may overshoot ``output_length``;
    the codec's trailing length check decides what that means.
    """
    out = bytearray()
    position = 0
    record_len = len(records)
    while position < record_len and len(out) < output_length:
        control = records[position]
        position += 1
        if control < _RLE_MAX_LITERALS:
            count = control + 1
            need = count * 4
            chunk = records[position:position + need]
            if len(chunk) != need:
                raise CorruptStreamError("truncated literal record")
            out += chunk
            position += need
        else:
            run = (control - 0x80) + _RLE_MIN_RUN
            if run == _RLE_MAX_BASE_RUN:
                while True:
                    if position >= record_len:
                        raise CorruptStreamError("truncated run extension")
                    extension = records[position]
                    position += 1
                    run += extension
                    if extension != 0xFF:
                        break
            word = records[position:position + 4]
            if len(word) != 4:
                raise CorruptStreamError("truncated run word")
            position += 4
            out += word * run
    return bytes(out)


# -- LZ78 dictionary coder --------------------------------------------


def _lz78_index_width(dictionary_size: int) -> int:
    """Bits needed to name indices 0..dictionary_size (0 = empty prefix)."""
    width = 1
    while (1 << width) <= dictionary_size:
        width += 1
    return width


def lz78_pack(data: bytes, max_entries: int) -> bytes:
    """LZ78 bit stream (no header) over ``data``.

    Emits ``(dictionary index, next byte)`` pairs while growing a
    phrase dictionary; the index field is ``_lz78_index_width`` of the
    current dictionary size wide, and the dictionary resets once it
    holds ``max_entries`` phrases.  When the input ends exactly on a
    dictionary phrase, the last token is that index alone (the
    decoder knows the output length, so it needs no terminator).
    Packed MSB-first with a zero-padded final byte.
    """
    values: List[int] = []
    widths: List[int] = []
    dictionary: Dict[Tuple[int, int], int] = {}
    position = 0
    length = len(data)
    while position < length:
        index = 0  # empty phrase
        while position < length:
            key = (index, data[position])
            next_index = dictionary.get(key)
            if next_index is None:
                break
            index = next_index
            position += 1
        values.append(index)
        widths.append(_lz78_index_width(len(dictionary)))
        if position < length:
            values.append(data[position])
            widths.append(8)
            dictionary[(index, data[position])] = len(dictionary) + 1
            position += 1
            if len(dictionary) >= max_entries:
                dictionary.clear()
        # else: the input ended exactly on a dictionary phrase; the
        # index-only token is the last one and carries no byte.
    return bitpack(values, widths)


class _BitReader:
    """MSB-first bit cursor over a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0  # bit offset

    def read_bits(self, width: int) -> int:
        position = self._position
        end = position + width
        data = self._data
        if end > len(data) * 8:
            raise CorruptStreamError("bit stream exhausted")
        first = position >> 3
        last = (end - 1) >> 3
        chunk = int.from_bytes(data[first:last + 1], "big")
        shift = ((last + 1) << 3) - end
        self._position = end
        return (chunk >> shift) & ((1 << width) - 1)


def lz78_decode(body: bytes, output_length: int, max_entries: int) -> bytes:
    """Decode an LZ78 bit stream (inverse of :func:`lz78_pack`).

    Stops once ``output_length`` bytes are produced.  A token whose
    phrase reaches the declared length ends the stream without a
    byte; a corrupt one may overshoot, and the overshoot is returned
    as-is for the codec's length check to reject.
    """
    reader = _BitReader(body)
    phrases: List[bytes] = [b""]
    out = bytearray()
    while len(out) < output_length:
        width = _lz78_index_width(len(phrases) - 1)
        index = reader.read_bits(width)
        if index >= len(phrases):
            raise CorruptStreamError(f"LZ78 index {index} out of range")
        phrase = phrases[index]
        if len(out) + len(phrase) >= output_length:
            out += phrase
            break
        byte = reader.read_bits(8)
        out += phrase + bytes([byte])
        phrases.append(phrase + bytes([byte]))
        if len(phrases) - 1 >= max_entries:
            phrases = [b""]
    return bytes(out)


# -- 7-zip entropy stage: adaptive arithmetic coding -------------------
#
# A classic Witten-Neal-Cleary integer arithmetic coder with 32-bit
# precision, coding symbol-at-a-time against caller-supplied adaptive
# models so the LZMA-style token coder can switch context models per
# token role (literal vs offset vs length) while sharing one code
# stream.  Models are Fenwick (binary indexed) trees, so
# cumulative-frequency queries and updates are O(log n); counts halve
# when a model's total reaches ``_MAX_TOTAL``, keeping the model
# adaptive and the arithmetic within precision bounds.

_CODE_BITS = 32
_TOP = (1 << _CODE_BITS) - 1
_HALF = 1 << (_CODE_BITS - 1)
_QUARTER = 1 << (_CODE_BITS - 2)
_THREE_QUARTERS = _HALF + _QUARTER
_MAX_TOTAL = 1 << 16
#: Zero bits the decoder may read past the end of its input (the
#: encoder's implicit trailing zeros).  A valid stream needs fewer
#: than ``_CODE_BITS``; past this many the stream is corrupt, which
#: bounds the decoder's work by its input size.
_MAX_IMPLICIT_BITS = _CODE_BITS


class AdaptiveModel:
    """Adaptive frequency table over ``size`` symbols (Fenwick tree)."""

    __slots__ = ("_tree", "_size", "total", "_increment")

    def __init__(self, size: int, increment: int = 32) -> None:
        if size < 2:
            raise ValueError("model needs at least 2 symbols")
        self._size = size
        self._tree = [0] * (size + 1)
        self.total = 0
        self._increment = increment
        for symbol in range(size):
            self._add(symbol, 1)

    @property
    def size(self) -> int:
        return self._size

    def _add(self, symbol: int, delta: int) -> None:
        index = symbol + 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)
        self.total += delta

    def cumulative(self, symbol: int) -> int:
        """Sum of frequencies of symbols < symbol."""
        index = symbol
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total

    def frequency(self, symbol: int) -> int:
        return self.cumulative(symbol + 1) - self.cumulative(symbol)

    def find(self, target: int) -> int:
        """The symbol whose [cumulative, cumulative+freq) spans target."""
        index = 0
        remaining = target
        mask = 1 << self._size.bit_length()
        while mask:
            probe = index + mask
            if probe <= self._size and self._tree[probe] <= remaining:
                index = probe
                remaining -= self._tree[probe]
            mask >>= 1
        return index

    def update(self, symbol: int) -> None:
        self._add(symbol, self._increment)
        if self.total >= _MAX_TOTAL:
            self._halve()

    def _halve(self) -> None:
        frequencies = [max(1, self.frequency(symbol) // 2)
                       for symbol in range(self._size)]
        self._tree = [0] * (self._size + 1)
        self.total = 0
        for symbol, frequency in enumerate(frequencies):
            self._add(symbol, frequency)


class ArithmeticEncoder:
    """Streaming arithmetic encoder; models are supplied per symbol."""

    def __init__(self) -> None:
        self._low = 0
        self._high = _TOP
        self._pending = 0
        self._out = bytearray()
        self._bit_buffer = 0
        self._bit_count = 0
        self._finished = False

    def encode(self, model: AdaptiveModel, symbol: int) -> None:
        if self._finished:
            raise CorruptStreamError("encoder already finished")
        if not 0 <= symbol < model.size:
            raise ValueError(f"symbol {symbol} outside model range")
        span = self._high - self._low + 1
        total = model.total
        cum_low = model.cumulative(symbol)
        cum_high = model.cumulative(symbol + 1)
        self._high = self._low + span * cum_high // total - 1
        self._low = self._low + span * cum_low // total
        self._renormalize()
        model.update(symbol)

    def _renormalize(self) -> None:
        while True:
            if self._high < _HALF:
                self._emit_with_pending(0)
            elif self._low >= _HALF:
                self._emit_with_pending(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                return
            self._low <<= 1
            self._high = (self._high << 1) | 1

    def _emit(self, bit: int) -> None:
        self._bit_buffer = (self._bit_buffer << 1) | bit
        self._bit_count += 1
        if self._bit_count == 8:
            self._out.append(self._bit_buffer)
            self._bit_buffer = 0
            self._bit_count = 0

    def _emit_with_pending(self, bit: int) -> None:
        self._emit(bit)
        while self._pending:
            self._emit(bit ^ 1)
            self._pending -= 1

    def finish(self) -> bytes:
        """Flush the final interval and return the code stream."""
        if not self._finished:
            self._pending += 1
            if self._low < _QUARTER:
                self._emit_with_pending(0)
            else:
                self._emit_with_pending(1)
            while self._bit_count:
                self._emit(0)
            self._finished = True
        return bytes(self._out)


class ArithmeticDecoder:
    """Mirror of :class:`ArithmeticEncoder`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._bit_position = 0
        self._implicit_bits = 0
        self._low = 0
        self._high = _TOP
        self._value = 0
        for _ in range(_CODE_BITS):
            self._value = (self._value << 1) | self._next_bit()

    def _next_bit(self) -> int:
        if self._bit_position >= len(self._data) * 8:
            # The encoder's implicit trailing zeros, up to a bound.
            self._implicit_bits += 1
            if self._implicit_bits > _MAX_IMPLICIT_BITS:
                raise CorruptStreamError("arithmetic code stream exhausted")
            return 0
        byte = self._data[self._bit_position >> 3]
        bit = (byte >> (7 - (self._bit_position & 7))) & 1
        self._bit_position += 1
        return bit

    def decode(self, model: AdaptiveModel) -> int:
        span = self._high - self._low + 1
        total = model.total
        target = ((self._value - self._low + 1) * total - 1) // span
        if target < 0 or target >= total:
            raise CorruptStreamError("arithmetic decoder out of range")
        symbol = model.find(target)
        cum_low = model.cumulative(symbol)
        cum_high = model.cumulative(symbol + 1)
        self._high = self._low + span * cum_high // total - 1
        self._low = self._low + span * cum_low // total
        self._renormalize()
        model.update(symbol)
        return symbol

    def _renormalize(self) -> None:
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._value -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._value -= _QUARTER
            else:
                return
            self._low <<= 1
            self._high = (self._high << 1) | 1
            self._value = (self._value << 1) | self._next_bit()


class ByteModelBank:
    """Order-1 literal contexts, lazily allocated (256-symbol models)."""

    def __init__(self, size: int = 256) -> None:
        self._size = size
        self._contexts: List = [None] * 256

    def model_for(self, context: int) -> AdaptiveModel:
        model = self._contexts[context & 0xFF]
        if model is None:
            model = AdaptiveModel(self._size)
            self._contexts[context & 0xFF] = model
        return model


_LZMA_KIND_LITERAL = 0
_LZMA_KIND_MATCH = 1
_LZMA_KIND_EOF = 2
#: Shortest match of the byte-LZ parse (``repro.compress.lzbytes``),
#: which the length symbol and the Zip length byte are relative to.
_BYTE_LZ_MIN_MATCH = 4


class _LzmaModels:
    """The adaptive model set shared by encoder and decoder."""

    def __init__(self) -> None:
        self.kind = AdaptiveModel(3)
        self.literals = ByteModelBank()
        self.offset_high = AdaptiveModel(256)
        self.offset_low = AdaptiveModel(256)
        self.length = AdaptiveModel(256)


def lzma_pack(values: Sequence[int], widths: Sequence[int],
              match_mask: int) -> bytes:
    """Arithmetic-code a byte-LZ token stream (the 7-zip entropy stage).

    ``(values, widths)`` is an :func:`lz77_tokens` stream: width 9 is
    a literal byte, any other width a match whose value, under
    ``match_mask``, holds ``offset - 1`` above bit 8 and
    ``length - 4`` in the low byte.  One code stream carries the token
    kind, order-1 literal contexts (reset to 0 after a match), offset
    high/low bytes and match length, each with its own adaptive model,
    then an end-of-stream kind.  Returns the flushed code stream.
    """
    models = _LzmaModels()
    encoder = ArithmeticEncoder()
    previous_byte = 0
    for value, width in zip(values, widths):
        if width == 9:
            encoder.encode(models.kind, _LZMA_KIND_LITERAL)
            encoder.encode(models.literals.model_for(previous_byte),
                           value)
            previous_byte = value
        else:
            fields = value & match_mask
            encoder.encode(models.kind, _LZMA_KIND_MATCH)
            encoder.encode(models.offset_high, fields >> 16)
            encoder.encode(models.offset_low, (fields >> 8) & 0xFF)
            encoder.encode(models.length, fields & 0xFF)
            previous_byte = 0  # context resets after a copy
    encoder.encode(models.kind, _LZMA_KIND_EOF)
    return encoder.finish()


def lzma_decode(body: bytes, output_length: int) -> bytes:
    """Decode a :func:`lzma_pack` code stream up to its end token.

    A stream that outgrows ``output_length`` is rejected at the token
    that overruns it; one that ends short is returned as-is for the
    codec's length check to reject.
    """
    models = _LzmaModels()
    decoder = ArithmeticDecoder(body)
    out = bytearray()
    previous_byte = 0
    while True:
        kind = decoder.decode(models.kind)
        if kind == _LZMA_KIND_EOF:
            break
        if kind == _LZMA_KIND_LITERAL:
            byte = decoder.decode(models.literals.model_for(previous_byte))
            out.append(byte)
            previous_byte = byte
        else:
            offset = ((decoder.decode(models.offset_high) << 8)
                      | decoder.decode(models.offset_low)) + 1
            run = decoder.decode(models.length) + _BYTE_LZ_MIN_MATCH
            start = len(out) - offset
            if start < 0:
                raise CorruptStreamError("back-reference before start")
            if offset >= run:
                out += out[start:start + run]
            else:
                for step in range(run):
                    out.append(out[start + step])  # self-overlapping
            previous_byte = 0
        if len(out) > output_length:
            raise CorruptStreamError("LZMA-like stream overran length")
    return bytes(out)


# -- Zip's byte-token stage -------------------------------------------


def lzbytes_pack(values: Sequence[int], widths: Sequence[int],
                 match_mask: int) -> bytes:
    """Serialize a byte-LZ token stream (Zip's token stage, no header).

    ``(values, widths)`` is an :func:`lz77_tokens` stream as for
    :func:`lzma_pack`.  Every 8 tokens are led by a control byte whose
    flags (MSB first) mark matches; a literal is its byte, a match the
    3 bytes ``value & match_mask`` (``offset - 1`` in the high 16
    bits, ``length - 4`` in the low 8).  A short final group's flags
    sit in the high bits of its control byte.
    """
    out = bytearray()
    count = len(values)
    for start in range(0, count, 8):
        end = min(start + 8, count)
        flags_position = len(out)
        out.append(0)
        flags = 0
        for index in range(start, end):
            flags <<= 1
            if widths[index] == 9:
                out.append(values[index])
            else:
                flags |= 1
                out += (values[index] & match_mask).to_bytes(3, "big")
        out[flags_position] = flags << (8 - (end - start))
    return bytes(out)


def lzbytes_decode(body: bytes, output_length: int) -> bytes:
    """Decode a :func:`lzbytes_pack` stream up to ``output_length``.

    A final match may overshoot ``output_length``; the overshoot is
    returned as-is for the codec's length check to reject.
    """
    position = 0
    out = bytearray()
    flags = 0
    flag_count = 0
    while len(out) < output_length:
        if flag_count == 0:
            if position >= len(body):
                raise CorruptStreamError("missing control byte")
            flags = body[position]
            position += 1
            flag_count = 8
        flag = (flags >> 7) & 1
        flags = (flags << 1) & 0xFF
        flag_count -= 1
        if flag:
            if position + 3 > len(body):
                raise CorruptStreamError("truncated match token")
            offset = ((body[position] << 8) | body[position + 1]) + 1
            run = body[position + 2] + _BYTE_LZ_MIN_MATCH
            position += 3
            start = len(out) - offset
            if start < 0:
                raise CorruptStreamError("back-reference before start")
            if offset >= run:
                out += out[start:start + run]
            else:
                for step in range(run):
                    out.append(out[start + step])  # self-overlapping
        else:
            if position >= len(body):
                raise CorruptStreamError("truncated literal token")
            out.append(body[position])
            position += 1
    return bytes(out)
