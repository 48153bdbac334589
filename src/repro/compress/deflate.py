"""Deflate-style codec — the Table I "Zip" row.

Real Zip/DEFLATE is LZ77 over a 32 KB window followed by Huffman
coding of the token stream.  This codec has exactly that structure:
the byte-aligned LZ stage from :mod:`repro.compress.lzbytes` (32 KB
window, 259-byte max match, the greedy hash-chain parse of the shared
``lz77_tokens`` kernel) followed by the canonical Huffman coder from
:mod:`repro.compress.huffman`.

Every stage runs as accel kernels: ``lz77_tokens`` and
``lzbytes_pack`` on the way in, then ``huffman_code_table`` and
``huffman_pack``; ``huffman_decode`` and ``lzbytes_decode`` on the way
out.  The codec itself only chains them.

It is not bit-compatible with RFC 1951 (no dynamic per-block trees),
but its compression behaviour on configuration bitstreams sits where
Zip sits in Table I: clearly above the single-stage codecs.
"""

from __future__ import annotations

from repro.compress.base import Codec
from repro.compress.huffman import HuffmanCodec
from repro.compress.lzbytes import LzByteStage


class DeflateCodec(Codec):
    """LZ77 (32 KB window) + canonical Huffman pipeline."""

    name = "Zip"

    def __init__(self, window: int = 1 << 15, max_chain: int = 64) -> None:
        self._lz = LzByteStage(window=window, max_chain=max_chain)
        self._entropy = HuffmanCodec()

    def compress(self, data: bytes) -> bytes:
        return self._entropy.compress(self._lz.encode(data))

    def decompress(self, data: bytes) -> bytes:
        return self._lz.decode(self._entropy.decompress(data))
