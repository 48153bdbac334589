"""LZ78 dictionary codec.

Emits ``(dictionary index, next byte)`` pairs while growing a phrase
dictionary; the index field width grows with the dictionary
(``ceil(log2(size + 1))`` bits), and the dictionary resets when it
reaches a bounded size — the behaviour of hardware LZ78 engines with a
fixed dictionary RAM.

Stream layout::

    [4-byte original length]
    bit stream of (index[var], byte[8]) pairs; a final pair may carry
    index-only (flagged by position == original length reached during
    decode, no explicit terminator needed).

The dictionary walk and the bit stream are the ``lz78_pack`` and
``lz78_decode`` accel kernels; this module owns the header.
"""

from __future__ import annotations

import struct

from repro import accel
from repro.compress.base import Codec
from repro.errors import CorruptStreamError


class Lz78Codec(Codec):
    """LZ78 with a bounded, resetting dictionary."""

    name = "LZ78"

    def __init__(self, max_entries: int = 1 << 10) -> None:
        if max_entries < 2:
            raise ValueError("dictionary needs at least 2 entries")
        self._max_entries = max_entries

    def compress(self, data: bytes) -> bytes:
        return struct.pack(">I", len(data)) + accel.lz78_pack(
            data, self._max_entries)

    def decompress(self, data: bytes) -> bytes:
        if len(data) < 4:
            raise CorruptStreamError("LZ78 stream truncated")
        (original_length,) = struct.unpack_from(">I", data, 0)
        out = accel.lz78_decode(data[4:], original_length,
                                self._max_entries)
        if len(out) != original_length:
            raise CorruptStreamError(
                f"LZ78 output length {len(out)} != declared {original_length}"
            )
        return out
