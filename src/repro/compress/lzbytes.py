"""Byte-aligned LZ token stage shared by the Zip/7-zip stand-ins.

Produces a byte stream (not a bit stream) of LZ tokens so a second
entropy stage (Huffman for :class:`DeflateCodec`, adaptive arithmetic
coding for :class:`LzmaLikeCodec`) can squeeze the residual
redundancy — the same two-stage structure as real DEFLATE and LZMA.

The parse is the shared ``lz77_tokens`` accel kernel, the same greedy
hash-chain parse the LZ77 codec runs, with 4-byte minimum matches and
an 8-bit length field (so matches are at most ``MIN_MATCH + 255``).

Token format: a control byte carries 8 flags (MSB first); flag 0 means
one literal byte follows, flag 1 means a match follows encoded as
``offset_hi, offset_lo, length - min_match`` (3 bytes).
"""

from __future__ import annotations

import struct

from repro import accel
from repro.errors import CorruptStreamError

MIN_MATCH = 4
_LENGTH_BITS = 8  # the one-byte length field


class LzByteStage:
    """Greedy LZ parse (the ``lz77_tokens`` kernel), byte-aligned."""

    def __init__(self, window: int = 1 << 16, max_chain: int = 64) -> None:
        if not 16 <= window <= 1 << 16 or window & (window - 1):
            raise ValueError(
                f"window must be a power of two in [16, 65536], got {window}")
        self._window_bits = window.bit_length() - 1
        self._max_chain = max_chain
        #: Masks a match token's value down to its
        #: ``offset - 1 | length - MIN_MATCH`` fields.
        self.match_mask = (1 << (self._window_bits + _LENGTH_BITS)) - 1

    def tokens(self, data: bytes) -> accel.TokenStream:
        """The greedy parse as the kernel's ``(values, widths)`` arrays.

        A literal has width 9 and the byte as its value; a match's
        value, under :attr:`match_mask`, is ``offset - 1`` in its high
        16 bits and ``length - MIN_MATCH`` in its low 8.
        """
        return accel.lz77_tokens(data, self._window_bits, _LENGTH_BITS,
                                 MIN_MATCH, self._max_chain)

    def encode(self, data: bytes) -> bytes:
        values, widths = self.tokens(data)
        mask = self.match_mask
        out = bytearray(struct.pack(">I", len(data)))
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
                    out += (values[index] & mask).to_bytes(3, "big")
            out[flags_position] = flags << (8 - (end - start))
        return bytes(out)

    def decode(self, data: bytes) -> bytes:
        if len(data) < 4:
            raise CorruptStreamError("LZ byte stream truncated")
        (original_length,) = struct.unpack_from(">I", data, 0)
        position = 4
        out = bytearray()
        flags = 0
        flag_count = 0
        while len(out) < original_length:
            if flag_count == 0:
                if position >= len(data):
                    raise CorruptStreamError("missing control byte")
                flags = data[position]
                position += 1
                flag_count = 8
            flag = (flags >> 7) & 1
            flags = (flags << 1) & 0xFF
            flag_count -= 1
            if flag:
                if position + 3 > len(data):
                    raise CorruptStreamError("truncated match token")
                offset = ((data[position] << 8) | data[position + 1]) + 1
                run = data[position + 2] + MIN_MATCH
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
                if position >= len(data):
                    raise CorruptStreamError("truncated literal token")
                out.append(data[position])
                position += 1
        if len(out) != original_length:
            raise CorruptStreamError(
                f"LZ byte stream output length {len(out)} != declared "
                f"{original_length}")
        return bytes(out)
