"""Lossless bitstream-compression codecs (Table I substrate).

Every algorithm the paper compares is implemented from scratch and
round-trip verified:

* :class:`RleCodec`        — run-length encoding (FaRM's scheme class).
* :class:`Lz77Codec`       — sliding-window LZSS with a hardware-sized window.
* :class:`Lz78Codec`       — dictionary-building LZ78.
* :class:`HuffmanCodec`    — canonical byte Huffman.
* :class:`XMatchProCodec`  — the word-tuple CAM-dictionary scheme UPaRC
  implements in hardware (Nunez & Jones, TVLSI 2003).
* :class:`DeflateCodec`    — LZ77 + Huffman pipeline (the "Zip" row).
* :class:`LzmaLikeCodec`   — large-window LZ + adaptive arithmetic coder
  (the "7-zip" row).

The codecs own their stream headers; their inner loops (token scans,
LZ78's dictionary walk, 7-zip's arithmetic coder, the bit-serial
decoders) are :mod:`repro.accel` kernels, so every backend writes the
same bytes.

The registry maps the paper's Table I row names to codec classes and
records the paper's reference ratios for comparison harnesses.
"""

from repro.compress.base import Codec, CompressionResult, compression_ratio
from repro.compress.rle import RleCodec
from repro.compress.lz77 import Lz77Codec
from repro.compress.lz78 import Lz78Codec
from repro.compress.huffman import HuffmanCodec
from repro.compress.xmatchpro import XMatchProCodec
from repro.compress.deflate import DeflateCodec
from repro.compress.lzma_like import LzmaLikeCodec
from repro.compress.registry import (
    PAPER_TABLE1_RATIOS,
    codec_by_name,
    all_codecs,
)

__all__ = [
    "Codec",
    "CompressionResult",
    "compression_ratio",
    "RleCodec",
    "Lz77Codec",
    "Lz78Codec",
    "HuffmanCodec",
    "XMatchProCodec",
    "DeflateCodec",
    "LzmaLikeCodec",
    "PAPER_TABLE1_RATIOS",
    "codec_by_name",
    "all_codecs",
]
