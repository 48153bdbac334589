"""Canonical byte-level Huffman codec.

Configuration bitstreams have a heavily skewed byte histogram (zero
bytes dominate even inside used frames), which is why plain Huffman
scores a respectable 72.3 % in Table I.

Stream layout::

    [4-byte original length]
    [256 x 1 byte of code lengths (0 = absent symbol)]
    [bit-packed canonical codewords]

Canonical code assignment makes the table compact (lengths only) and
the decoder table-driven.  Every per-byte stage is an accel kernel:
``huffman_code_table`` (the byte histogram, the two-least-weights
merge and canonical code assignment), ``huffman_pack`` and
``huffman_decode``.
"""

from __future__ import annotations

import struct

from repro import accel
from repro.compress.base import Codec
from repro.errors import CorruptStreamError

_MAX_CODE_LENGTH = 32


class HuffmanCodec(Codec):
    """Static canonical Huffman over bytes."""

    name = "Huffman"

    def compress(self, data: bytes) -> bytes:
        out = bytearray(struct.pack(">I", len(data)))
        if not data:
            return bytes(out) + bytes(256)
        codes, lengths = accel.huffman_code_table(data)
        if max(lengths) > _MAX_CODE_LENGTH:
            raise CorruptStreamError("code length overflow")  # unreachable
        out += bytes(lengths)
        out += accel.huffman_pack(data, codes, lengths)
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        if len(data) < 4 + 256:
            if len(data) >= 4:
                (declared,) = struct.unpack_from(">I", data, 0)
                if declared == 0 and len(data) >= 4:
                    return b""
            raise CorruptStreamError("Huffman stream truncated")
        (original_length,) = struct.unpack_from(">I", data, 0)
        if original_length == 0:
            return b""
        table = data[4:4 + 256]
        if not any(table):
            raise CorruptStreamError("empty Huffman table for non-empty data")
        # Canonical code reassignment, the peek-table build and the
        # table-driven decode loop all run as the ``huffman_decode``
        # accel kernel; every backend raises the same errors at the
        # same points of failure.
        return accel.huffman_decode(data[4 + 256:], original_length,
                                    table)
