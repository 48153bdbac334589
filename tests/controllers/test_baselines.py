"""Baseline controllers: bandwidths, capacity limits, integrity."""

import pytest

from repro.controllers import (
    BramHwicap,
    Farm,
    FlashCap,
    MstIcap,
    XpsHwicap,
)
from repro.errors import CapacityError, ControllerError
from repro.units import DataSize, Frequency


def mhz(value):
    return Frequency.from_mhz(value)


class TestXpsHwicap:
    def test_cached_profile_near_table3(self, paper_bitstream):
        result = XpsHwicap(profile="cached").best_result(paper_bitstream)
        assert result.bandwidth_decimal_mbps == pytest.approx(14.5,
                                                              rel=0.08)
        assert result.verified

    def test_unoptimized_profile_1_5_mbps(self, paper_bitstream):
        result = XpsHwicap(profile="unoptimized").reconfigure(
            paper_bitstream, mhz(100))
        assert result.bandwidth_decimal_mbps == pytest.approx(1.5,
                                                              rel=0.08)

    def test_compactflash_profile_180_kbps(self, small_bitstream):
        result = XpsHwicap(profile="compactflash").reconfigure(
            small_bitstream, mhz(100))
        kbps = result.bandwidth_decimal_mbps * 1000
        assert kbps == pytest.approx(180, rel=0.15)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ControllerError):
            XpsHwicap(profile="warp-speed")

    def test_frequency_cap(self, small_bitstream):
        with pytest.raises(ControllerError):
            XpsHwicap().reconfigure(small_bitstream, mhz(150))

    def test_energy_efficiency_30uj_per_kb(self, paper_bitstream):
        result = XpsHwicap(profile="unoptimized").reconfigure(
            paper_bitstream, mhz(100))
        assert result.energy.uj_per_kb == pytest.approx(30.0, rel=0.05)


class TestBramHwicap:
    def test_table3_bandwidth(self, paper_bitstream):
        result = BramHwicap().best_result(paper_bitstream)
        assert result.bandwidth_decimal_mbps == pytest.approx(371, rel=0.02)
        assert result.verified

    def test_capacity_limited(self):
        from repro.bitstream.generator import generate_bitstream
        oversized = generate_bitstream(size=DataSize.from_kb(300))
        with pytest.raises(CapacityError):
            BramHwicap().best_result(oversized)

    def test_dma_frequency_cap(self, small_bitstream):
        from repro.errors import FrequencyError
        with pytest.raises(FrequencyError):
            BramHwicap().reconfigure(small_bitstream, mhz(150))


class TestMstIcap:
    def test_table3_bandwidth(self, paper_bitstream):
        result = MstIcap().best_result(paper_bitstream)
        assert result.bandwidth_decimal_mbps == pytest.approx(235, rel=0.02)

    def test_handles_large_bitstreams(self):
        from repro.bitstream.generator import generate_bitstream
        large = generate_bitstream(size=DataSize.from_kb(1200))
        result = MstIcap().best_result(large)
        assert result.verified

    def test_slower_than_bram_hwicap(self, paper_bitstream):
        mst = MstIcap().best_result(paper_bitstream)
        bram = BramHwicap().best_result(paper_bitstream)
        assert mst.bandwidth_decimal_mbps < bram.bandwidth_decimal_mbps


class TestFarm:
    def test_table3_bandwidth(self, paper_bitstream):
        result = Farm().best_result(paper_bitstream)
        assert result.bandwidth_decimal_mbps == pytest.approx(800, rel=0.02)
        assert result.verified

    def test_compressed_mode_stores_less(self, paper_bitstream):
        result = Farm(mode="compressed").best_result(paper_bitstream)
        assert result.stored_size.bytes < paper_bitstream.size.bytes

    def test_direct_mode_capacity_limited(self):
        from repro.bitstream.generator import generate_bitstream
        oversized = generate_bitstream(size=DataSize.from_kb(300))
        with pytest.raises(CapacityError):
            Farm(mode="direct").best_result(oversized)

    def test_compression_extends_capacity(self, paper_bitstream):
        farm = Farm(mode="compressed")
        effective = farm.effective_capacity(paper_bitstream)
        assert effective.bytes > farm.bram_capacity.bytes * 1.5

    def test_invalid_mode_rejected(self):
        with pytest.raises(ControllerError):
            Farm(mode="turbo")


class TestFlashCap:
    def test_table3_bandwidth(self, paper_bitstream):
        result = FlashCap().best_result(paper_bitstream)
        assert result.bandwidth_decimal_mbps == pytest.approx(358, rel=0.02)
        assert result.verified

    def test_stores_compressed(self, paper_bitstream):
        result = FlashCap().best_result(paper_bitstream)
        assert result.stored_size.bytes < paper_bitstream.size.bytes // 2

    def test_frequency_cap(self, small_bitstream):
        with pytest.raises(ControllerError):
            FlashCap().reconfigure(small_bitstream, mhz(130))


def test_all_baselines_deliver_identical_payload(small_bitstream):
    controllers = [XpsHwicap(), BramHwicap(), MstIcap(), Farm(), FlashCap()]
    results = [c.best_result(small_bitstream) for c in controllers]
    crcs = {r.payload_crc for r in results}
    assert len(crcs) == 1
    assert all(r.verified for r in results)
