"""Cross-backend golden digests for the kernelised codecs.

Each codec whose inner loop moved into the accel package must produce
byte-identical streams under every available backend (pure, and
native when the compiled extension is built), and the stream itself
is frozen: these digests pin the on-wire format of a 24 KB generated
bitstream for every kernelised codec.  A mismatch means streams
compressed before the change no longer decode — if the format changes
on purpose, update the digest.

Native kernels take the C path at every size, so the native digest
genuinely exercises the C code rather than falling through to pure.
"""

import hashlib

import pytest

from repro import accel
from repro.bitstream.generator import generate_bitstream
from repro.compress import (
    DeflateCodec,
    HuffmanCodec,
    Lz77Codec,
    Lz78Codec,
    LzmaLikeCodec,
    RleCodec,
    XMatchProCodec,
)
from repro.units import DataSize

#: SHA-256 of ``compress()`` output over the 24 KB seed-2012 payload.
GOLDEN = {
    "X-MatchPRO":
        "1f192f4d3b879c120e6bbb8de2f694d68db8a4887afa57fef14a62d36d6fa8e2",
    "LZ77":
        "9e8cc1fae23e1182e7d0ac26f2749aa177e26cd3ec18993f09b190050b15db7c",
    "Huffman":
        "af7481fbca694e597678a6d93cb6e338c62630b63ded9b1d0f3fc9c3e684e1d4",
    "RLE":
        "a7ad1e40d310220f7fd1b8a496181c3059845f98ab737248940826055ead0ef3",
    # Zip and 7-zip pinned from the Python hash-chain parser that
    # preceded their move onto the ``lz77_tokens`` kernel.
    "Zip":
        "a45764147a042e7d352446a721e0dd19e8221a15a00886070a3445fcc63a157b",
    "7-zip":
        "e90e656253c0d580091c0363dc6d4adac0f8dcb9eee8a3226bf19cd5bc4f5b27",
    # Pinned from the Python dictionary walk that preceded the
    # ``lz78_pack`` kernel.
    "LZ78":
        "cb4d5f450917ceeb35890c4fffedc0b79cc814093cf1d3a166c3673519eac30d",
}

#: The generator itself is backend-dispatched, so the payload digest
#: is pinned too — a drift here would invalidate every codec digest.
PAYLOAD_DIGEST = \
    "ff3982249bcff3a8487d09093cc2139bd12dc3395fe3170b4bb40465903953ba"

CODECS = [XMatchProCodec(), Lz77Codec(), HuffmanCodec(), RleCodec(),
          DeflateCodec(), LzmaLikeCodec(), Lz78Codec()]


@pytest.fixture(scope="module")
def payload():
    blob = generate_bitstream(size=DataSize.from_kb(24),
                              seed=2012).raw_bytes
    assert hashlib.sha256(blob).hexdigest() == PAYLOAD_DIGEST
    return blob


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
@pytest.mark.parametrize("backend", accel.available_backends())
def test_codec_digest_pinned_per_backend(payload, codec, backend):
    with accel.using(backend):
        compressed = codec.compress(payload)
        assert codec.decompress(compressed) == payload
    digest = hashlib.sha256(compressed).hexdigest()
    assert digest == GOLDEN[codec.name], \
        f"{codec.name} stream format drifted under the {backend} backend"
