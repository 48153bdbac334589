"""Run-time decompressor swap via partial reconfiguration (§VI)."""

import pytest

from repro.core.system import UPaRCSystem
from repro.core.urec import OperationMode
from repro.errors import ReconfigurationFailed
from repro.units import Frequency


def test_swap_installs_new_engine(small_bitstream):
    system = UPaRCSystem()  # boots with x-matchpro
    assert system.decompressor.spec.name == "x-matchpro"
    result = system.swap_decompressor("farm-rle")
    assert result.verified
    assert system.decompressor.spec.name == "farm-rle"


def test_swap_is_a_real_reconfiguration(small_bitstream):
    system = UPaRCSystem()
    frames_before = system.config_logic.frames_written
    result = system.swap_decompressor("huffman")
    assert result.frames_written > 0
    assert system.config_logic.frames_written > frames_before


def test_clk3_retuned_to_new_ceiling():
    system = UPaRCSystem()
    clk3_before = system.dyclogen.clk3.frequency
    system.swap_decompressor("farm-rle")  # 200 MHz ceiling vs 126
    assert system.dyclogen.clk3.frequency > clk3_before
    assert system.dyclogen.clk3.frequency \
        <= Frequency.from_mhz(200)


def test_compressed_runs_use_new_codec(small_bitstream):
    system = UPaRCSystem()
    system.swap_decompressor("farm-rle")
    result = system.run(small_bitstream, frequency=Frequency.from_mhz(200),
                        mode=OperationMode.COMPRESSED)
    assert result.verified
    # RLE compresses these bitstreams less than X-MatchPRO.
    baseline = UPaRCSystem().run(small_bitstream,
                                 frequency=Frequency.from_mhz(200),
                                 mode=OperationMode.COMPRESSED)
    assert result.stored_size.bytes > baseline.stored_size.bytes


def test_swap_cost_scales_with_engine_area():
    big = UPaRCSystem().swap_decompressor("x-matchpro")   # 1035 slices
    small = UPaRCSystem().swap_decompressor("farm-rle")   # 132 slices
    assert big.bitstream_size.bytes > 3 * small.bitstream_size.bytes


def test_library_trade_off_ratio_throughput_area():
    """Section VI's trade-off: each library decompressor run in mode
    ii at the lowest grid CLK_2 that absorbs its output rate."""
    from repro.bitstream.generator import generate_bitstream
    from repro.core.policy import FrequencyPolicy
    from repro.fpga.area import PACKERS, ResourceInventory
    from repro.fpga.decompressor import DECOMPRESSOR_LIBRARY
    from repro.power.model import PowerModel
    from repro.units import DataSize

    bitstream = generate_bitstream(size=DataSize.from_kb(81))
    grid = FrequencyPolicy(PowerModel()).candidate_frequencies()
    results = {}
    for name, spec in DECOMPRESSOR_LIBRARY.items():
        needed = min(255.0, max(50.0, spec.words_per_cycle
                                * spec.max_frequency.mhz * 1.01))
        clk2 = next((f for f in grid if f.mhz >= needed), grid[-1])
        result = UPaRCSystem(decompressor=name).run(
            bitstream, frequency=clk2, mode=OperationMode.COMPRESSED)
        assert result.verified, name
        # Throughput tracks words_per_cycle x fmax.
        ceiling = spec.words_per_cycle * spec.max_frequency.mhz * 4
        assert result.bandwidth_decimal_mbps <= ceiling * 1.02, name
        results[name] = (
            result.bandwidth_decimal_mbps,
            1 - result.stored_size.bytes / bitstream.size.bytes,
            PACKERS["virtex5"].slices(
                ResourceInventory(luts=spec.luts, ffs=spec.ffs)))

    xmatch_mbps, xmatch_ratio, xmatch_slices = results["x-matchpro"]
    rle_mbps, rle_ratio, rle_slices = results["farm-rle"]
    # X-MatchPRO is faster and compresses better than RLE, at much
    # larger area.
    assert xmatch_mbps > rle_mbps
    assert xmatch_ratio > rle_ratio
    assert xmatch_slices > 2 * rle_slices


def test_unknown_engine_rejected():
    with pytest.raises(ReconfigurationFailed, match="unknown"):
        UPaRCSystem().swap_decompressor("zstd")


def test_swap_then_swap_back(small_bitstream):
    system = UPaRCSystem()
    system.swap_decompressor("lz77")
    system.swap_decompressor("x-matchpro")
    result = system.run(small_bitstream,
                        mode=OperationMode.COMPRESSED)
    assert result.verified
