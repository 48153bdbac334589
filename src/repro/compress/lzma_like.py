"""LZMA-style codec — the Table I "7-zip" row.

7-zip's LZMA is a large-window LZ77 whose token fields are coded by an
adaptive range coder with *structured context models*: the literal
stream, match offsets and match lengths each get their own adaptive
probability models rather than sharing one histogram.  This codec has
exactly that architecture:

* the greedy hash-chain LZ parse of :mod:`repro.compress.lzbytes`
  (the shared ``lz77_tokens`` kernel) over the full 64 KB offset
  space;
* one shared arithmetic code stream (:mod:`repro.compress.arith` — an
  arithmetic coder and a range coder are equivalent entropy stages)
  with separate adaptive models for the token kind, order-1 literal
  contexts, offset high/low bytes and match length.

It is not format-compatible with the real tool, but the structure is
what gives 7-zip its small edge over Zip in Table I (81.9 % vs
81.2 %): the same LZ redundancy, better-modelled residual.

Stream layout: ``[4-byte original length][arithmetic code stream]``;
an explicit end-of-stream token terminates decoding and the length
header cross-checks it.
"""

from __future__ import annotations

import struct

from repro.compress.arith import (
    AdaptiveModel,
    ArithmeticDecoder,
    ArithmeticEncoder,
    ByteModelBank,
)
from repro.compress.base import Codec
from repro.compress.lzbytes import LzByteStage, MIN_MATCH
from repro.errors import CorruptStreamError

_KIND_LITERAL = 0
_KIND_MATCH = 1
_KIND_EOF = 2


class _TokenModels:
    """The adaptive model set shared by encoder and decoder."""

    def __init__(self) -> None:
        self.kind = AdaptiveModel(3)
        self.literals = ByteModelBank()
        self.offset_high = AdaptiveModel(256)
        self.offset_low = AdaptiveModel(256)
        self.length = AdaptiveModel(256)


class LzmaLikeCodec(Codec):
    """Large-window LZ + structured adaptive arithmetic coding."""

    name = "7-zip"

    def __init__(self, window: int = 1 << 16, max_chain: int = 128) -> None:
        self._lz = LzByteStage(window=window, max_chain=max_chain)

    def compress(self, data: bytes) -> bytes:
        models = _TokenModels()
        encoder = ArithmeticEncoder()
        previous_byte = 0
        values, widths = self._lz.tokens(data)
        mask = self._lz.match_mask
        for value, width in zip(values, widths):
            if width == 9:
                encoder.encode(models.kind, _KIND_LITERAL)
                encoder.encode(models.literals.model_for(previous_byte),
                               value)
                previous_byte = value
            else:
                fields = value & mask
                encoder.encode(models.kind, _KIND_MATCH)
                encoder.encode(models.offset_high, fields >> 16)
                encoder.encode(models.offset_low, (fields >> 8) & 0xFF)
                encoder.encode(models.length, fields & 0xFF)
                previous_byte = 0  # context resets after a copy
        encoder.encode(models.kind, _KIND_EOF)
        return struct.pack(">I", len(data)) + encoder.finish()

    def decompress(self, data: bytes) -> bytes:
        if len(data) < 4:
            raise CorruptStreamError("LZMA-like stream truncated")
        (original_length,) = struct.unpack_from(">I", data, 0)
        models = _TokenModels()
        decoder = ArithmeticDecoder(data[4:])
        out = bytearray()
        previous_byte = 0
        while True:
            kind = decoder.decode(models.kind)
            if kind == _KIND_EOF:
                break
            if kind == _KIND_LITERAL:
                byte = decoder.decode(models.literals.model_for(previous_byte))
                out.append(byte)
                previous_byte = byte
            else:
                offset = ((decoder.decode(models.offset_high) << 8)
                          | decoder.decode(models.offset_low)) + 1
                run = decoder.decode(models.length) + MIN_MATCH
                start = len(out) - offset
                if start < 0:
                    raise CorruptStreamError("back-reference before start")
                if offset >= run:
                    out += out[start:start + run]
                else:
                    for step in range(run):
                        out.append(out[start + step])  # self-overlapping
                previous_byte = 0
            if len(out) > original_length:
                raise CorruptStreamError("LZMA-like stream overran length")
        if len(out) != original_length:
            raise CorruptStreamError(
                f"LZMA-like output length {len(out)} != declared "
                f"{original_length}"
            )
        return bytes(out)
