"""LZ77 (LZSS variant) with a hardware-sized sliding window.

Table I's "LZ77" row corresponds to the hardware-implementable
dictionary coders of the era: a small sliding window (256 bytes
default, an 8-bit offset — a shift-register window that fits FPGA
logic) and a 4-bit match length, with flag bits selecting literal vs.
(offset, length) tokens.

Stream layout::

    [4-byte original length]
    bit stream of tokens:
        1, offset[window_bits], length[length_bits]  -> copy
        0, literal[8]                                -> byte

Match search uses hash chains on 3-byte prefixes so compressing a
250 KB bitstream stays fast in pure Python.
"""

from __future__ import annotations

import struct

from repro import accel
from repro.compress.base import Codec
from repro.errors import CorruptStreamError


class Lz77Codec(Codec):
    """Sliding-window LZSS."""

    name = "LZ77"

    def __init__(self, window_bits: int = 8, length_bits: int = 4,
                 min_match: int = 3, max_chain: int = 8) -> None:
        if not 4 <= window_bits <= 16:
            raise ValueError("window_bits must be in [4, 16]")
        if not 2 <= length_bits <= 8:
            raise ValueError("length_bits must be in [2, 8]")
        self._window_bits = window_bits
        self._length_bits = length_bits
        self._window = 1 << window_bits
        self._min_match = min_match
        self._max_match = min_match + (1 << length_bits) - 1
        self._max_chain = max_chain

    def compress(self, data: bytes) -> bytes:
        # Hash-chain search, greedy tokenisation and bit packing all
        # run as accel kernels; the stream layout is unchanged.
        values, widths = accel.lz77_tokens(
            data, self._window_bits, self._length_bits,
            self._min_match, self._max_chain)
        return struct.pack(">I", len(data)) + accel.bitpack(values, widths)

    def decompress(self, data: bytes) -> bytes:
        if len(data) < 4:
            raise CorruptStreamError("LZ77 stream truncated")
        (original_length,) = struct.unpack_from(">I", data, 0)
        # Token decode (bit cursor, copy resolution against the
        # growing output) runs as the ``lz77_decode`` accel kernel;
        # every backend raises the same errors at the same points.  A
        # corrupt final match may overshoot the declared length, which
        # the kernel returns as-is for the check below.
        out = accel.lz77_decode(data[4:], original_length,
                                self._window_bits, self._length_bits,
                                self._min_match)
        if len(out) != original_length:
            raise CorruptStreamError("LZ77 length mismatch")
        return out
