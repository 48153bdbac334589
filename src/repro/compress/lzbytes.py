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
``offset_hi, offset_lo, length - min_match`` (3 bytes).  Serializing
the tokens and decoding them are the ``lzbytes_pack`` and
``lzbytes_decode`` accel kernels; this stage adds the 4-byte length
header and checks the decoded length against it.
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
        return struct.pack(">I", len(data)) + accel.lzbytes_pack(
            values, widths, self.match_mask)

    def decode(self, data: bytes) -> bytes:
        if len(data) < 4:
            raise CorruptStreamError("LZ byte stream truncated")
        (original_length,) = struct.unpack_from(">I", data, 0)
        out = accel.lzbytes_decode(data[4:], original_length)
        if len(out) != original_length:
            raise CorruptStreamError(
                f"LZ byte stream output length {len(out)} != declared "
                f"{original_length}")
        return out
