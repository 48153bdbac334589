"""Mode-ii runs tick the accel counters for every compressor kernel.

One system run per decompressor-library entry, under each installed
backend, with the metrics registry live: the compress-offline path
must report nonzero ``accel.<backend>.<kernel>.calls`` for the
kernels that codec dispatches — the encode kernels on the compress
side and the matching bit-serial decode kernel on the decompress
side.  Together the four codecs cover all ten compressor-stack
kernels, so a kernel silently bypassing the dispatch facade (and its
``record`` call) fails here.  The Table I-only codecs, LZ78, Zip and
7-zip, never run in mode ii, so a plain round trip checks theirs.
Generating a bitstream likewise ticks the frame planner's counter
once per generated payload, and the FDRI configuration CRC's word
fold ticks ``crc32c_words`` on both sides of the stream: once in the
generator, again in the configuration logic that absorbs it.
"""

import pytest

from repro import accel, obs
from repro.bitstream.generator import generate_bitstream
from repro.core.system import UPaRCSystem
from repro.compress import DeflateCodec, Lz78Codec, LzmaLikeCodec
from repro.core.urec import OperationMode
from repro.units import DataSize

#: Kernels each codec's compress+decompress paths dispatch during
#: mode ii.  Huffman's encoder fuses encode+pack, so it ticks its own
#: ``huffman_pack`` kernel rather than the generic ``bitpack``.
EXPECTED_KERNELS = {
    "x-matchpro": ("xmatch_tokens", "bitpack", "xmatch_decode"),
    "lz77": ("lz77_tokens", "bitpack", "lz77_decode"),
    "huffman": ("huffman_code_table", "huffman_pack", "huffman_decode"),
    "farm-rle": ("rle_records", "rle_decode"),
}

#: Kernels a Table I round trip dispatches for the codecs mode ii
#: never runs.
TABLE1_KERNELS = {
    "LZ78": (Lz78Codec(), ("lz78_pack", "lz78_decode")),
    "Zip": (DeflateCodec(),
            ("lz77_tokens", "lzbytes_pack", "huffman_code_table",
             "huffman_pack", "huffman_decode", "lzbytes_decode")),
    "7-zip": (LzmaLikeCodec(),
              ("lz77_tokens", "lzma_pack", "lzma_decode")),
}


def _bitstream():
    return generate_bitstream(size=DataSize.from_kb(6.5), seed=2012)


@pytest.mark.parametrize("backend", accel.available_backends())
@pytest.mark.parametrize("name", sorted(EXPECTED_KERNELS))
def test_mode_ii_run_ticks_compressor_kernels(backend, name):
    with accel.using(backend):
        with obs.observed(metrics=True) as observation:
            system = UPaRCSystem(decompressor=name)
            result = system.run(_bitstream(),
                                mode=OperationMode.COMPRESSED)
    assert result.mode == "compressed"
    counters = observation.registry.snapshot()["counters"]
    for kernel in EXPECTED_KERNELS[name]:
        calls = counters.get(f"accel.{backend}.{kernel}.calls", 0)
        assert calls > 0, \
            f"{name} run did not dispatch {kernel} ({backend})"
        assert counters.get(f"accel.{backend}.{kernel}.bytes", 0) > 0


@pytest.mark.parametrize("backend", accel.available_backends())
@pytest.mark.parametrize("name", sorted(TABLE1_KERNELS))
def test_table1_round_trip_ticks_codec_kernels(backend, name):
    codec, kernels = TABLE1_KERNELS[name]
    data = _bitstream().raw_bytes
    with accel.using(backend):
        with obs.observed(metrics=True) as observation:
            assert codec.decompress(codec.compress(data)) == data
    counters = observation.registry.snapshot()["counters"]
    for kernel in kernels:
        assert counters.get(f"accel.{backend}.{kernel}.calls", 0) > 0, \
            f"{name} round trip did not dispatch {kernel} ({backend})"
        assert counters.get(f"accel.{backend}.{kernel}.bytes", 0) > 0


@pytest.mark.parametrize("backend", accel.available_backends())
def test_generate_bitstream_ticks_plan_frames(backend):
    with accel.using(backend):
        with obs.observed(metrics=True) as observation:
            bitstream = _bitstream()
    counters = observation.registry.snapshot()["counters"]
    assert counters.get(f"accel.{backend}.plan_frames.calls", 0) == 1
    # One plan covers the whole FDRI payload.
    assert counters.get(f"accel.{backend}.plan_frames.bytes", 0) == \
        len(bitstream.payload_data)


@pytest.mark.parametrize("backend", accel.available_backends())
def test_generate_and_mode_ii_run_tick_crc32c_words(backend):
    with accel.using(backend):
        with obs.observed(metrics=True) as observation:
            bitstream = _bitstream()
            generated = observation.registry.snapshot()["counters"].get(
                f"accel.{backend}.crc32c_words.calls", 0)
            result = UPaRCSystem().run(bitstream,
                                       mode=OperationMode.COMPRESSED)
    assert result.mode == "compressed"
    counters = observation.registry.snapshot()["counters"]
    calls = counters.get(f"accel.{backend}.crc32c_words.calls", 0)
    assert generated >= 1, f"generator did not fold the FDRI CRC ({backend})"
    assert calls - generated >= 1, \
        f"configuration logic did not fold the FDRI CRC ({backend})"
    # Both sides fold the whole FDRI payload.
    assert counters.get(f"accel.{backend}.crc32c_words.bytes", 0) >= \
        2 * len(bitstream.payload_data)


def test_expected_kernel_map_covers_every_new_kernel():
    covered = {kernel for kernels in EXPECTED_KERNELS.values()
               for kernel in kernels}
    assert covered == {"xmatch_tokens", "bitpack", "lz77_tokens",
                       "huffman_code_table", "huffman_pack",
                       "rle_records", "xmatch_decode", "lz77_decode",
                       "huffman_decode", "rle_decode"}
