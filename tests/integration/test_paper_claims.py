"""The paper's headline claims, asserted end to end.

Each test here corresponds to a sentence in the paper; together they
are the reproduction's acceptance suite.  EXPERIMENTS.md quotes the
same numbers.
"""

import pytest

from repro import (
    Farm,
    UparcController,
    UPaRCSystem,
    XpsHwicap,
    generate_bitstream,
)
from repro.compress import PAPER_TABLE1_RATIOS, all_codecs
from repro.fpga.area import slices_for
from repro.sweep import TABLE1_GRID, SweepEngine, table1_ratios
from repro.units import DataSize, Frequency


def mhz(value):
    return Frequency.from_mhz(value)


class TestAbstractClaims:
    def test_boost_reconfiguration_throughput_to_1_433_gbps(
            self, paper_bitstream):
        """'to boost the reconfiguration throughput up to 1.433 GB/s'"""
        result = UparcController("i").best_result(paper_bitstream)
        assert result.bandwidth_decimal_mbps / 1000 \
            == pytest.approx(1.433, rel=0.01)

    def test_45x_energy_efficiency(self, paper_bitstream):
        """'up to 45 times more efficient' than xps_hwicap."""
        xps = XpsHwicap(profile="unoptimized").reconfigure(
            paper_bitstream, mhz(100))
        uparc = UPaRCSystem(decompressor=None).run(
            paper_bitstream, frequency=mhz(100))
        ratio = xps.energy.uj_per_kb / uparc.energy.uj_per_kb
        assert ratio == pytest.approx(45, rel=0.05)


class TestSection3Claims:
    def test_operates_up_to_362_5_mhz(self, small_bitstream):
        """'can operate at ultimate frequency (up to 362.5 MHz)'"""
        result = UparcController("i").reconfigure(small_bitstream,
                                                  mhz(362.5))
        assert result.verified

    def test_dcm_synthesis_m29_d8(self):
        """'F_in = 100 MHz, M = 29 and D = 8 for DyCloGen'"""
        assert mhz(100).scaled(29, 8) == mhz(362.5)

    def test_xmatchpro_four_times_smaller(self, paper_bitstream):
        """'the compressed bitstream is about four times smaller'"""
        from repro.compress import XMatchProCodec
        result = XMatchProCodec().measure(paper_bitstream.raw_bytes)
        assert result.factor == pytest.approx(4.0, rel=0.15)


class TestTable1:
    def test_ranking_matches(self, medium_bitstream):
        measured = {codec.name: codec.measure(
            medium_bitstream.raw_bytes).ratio_percent
            for codec in all_codecs()}
        assert sorted(measured, key=measured.get) \
            == list(PAPER_TABLE1_RATIOS)

    def test_table1_grid_within_4_pp(self):
        """The sweep's 49/81/156 KB corpus keeps the paper's ranking
        with every ratio within 4 pp, and a parallel rerun of the grid
        returns the same results."""
        serial = SweepEngine(TABLE1_GRID, jobs=1).run()
        ratios = table1_ratios(serial)
        assert sorted(ratios, key=ratios.get) == list(PAPER_TABLE1_RATIOS)
        for name, paper_value in PAPER_TABLE1_RATIOS.items():
            assert abs(ratios[name] - paper_value) < 4.0, name

        assert SweepEngine(TABLE1_GRID, jobs=2).run() == serial


class TestTable2:
    @pytest.mark.parametrize("module,family,expected", [
        ("dyclogen", "virtex5", 24), ("dyclogen", "virtex6", 18),
        ("urec", "virtex5", 26), ("urec", "virtex6", 26),
        ("decompressor", "virtex5", 1035), ("decompressor", "virtex6", 900),
    ])
    def test_slice_counts(self, module, family, expected):
        assert slices_for(module, family) == expected


class TestSection4Claims:
    def test_1_8x_faster_than_farm(self, paper_bitstream):
        """'1.8 times higher than the fastest controller ... FaRM'"""
        uparc = UparcController("i").best_result(paper_bitstream)
        farm = Farm().best_result(paper_bitstream)
        assert uparc.bandwidth_decimal_mbps / farm.bandwidth_decimal_mbps \
            == pytest.approx(1.8, rel=0.03)

    def test_fig5_small_bitstream_efficiency(self):
        """'with the bitstream size of 6.5 KB, the effective bandwidth
        is 1.14 GB/s which is 78.8% of the theoretical bandwidth'"""
        small = generate_bitstream(size=DataSize.from_kb(6.5))
        result = UPaRCSystem(decompressor=None).run(small,
                                                    frequency=mhz(362.5))
        assert result.bandwidth_decimal_mbps / 1000 \
            == pytest.approx(1.14, rel=0.02)

    def test_fig5_large_bitstream_99_percent(self, paper_bitstream):
        """'With a bitstream size of 247 KB ... 99%'"""
        large = generate_bitstream(size=DataSize.from_kb(247))
        result = UPaRCSystem(decompressor=None).run(large,
                                                    frequency=mhz(362.5))
        theoretical = 362.5e6 * 4 / 1e6
        assert result.bandwidth_decimal_mbps / theoretical \
            == pytest.approx(0.99, abs=0.01)

    def test_compression_capacity_992kb(self, paper_bitstream):
        """'256 KBytes ... allows for storing the maximum bitstream of
        992 KBytes' (a 3.9x stretch at the 74.2% ratio)."""
        from repro.compress import XMatchProCodec
        ratio = XMatchProCodec().measure(paper_bitstream.raw_bytes)
        capacity = 256 * ratio.factor
        assert capacity == pytest.approx(992, rel=0.15)

    def test_mode_ii_throughput_1008(self, paper_bitstream):
        """'supplies a reconfiguration throughput of 1.008 GB/s'"""
        result = UparcController("ii").best_result(paper_bitstream)
        assert result.bandwidth_decimal_mbps \
            == pytest.approx(1008, rel=0.02)


class TestSection5Claims:
    def test_fig7_operating_points(self, paper_bitstream):
        """183 mW/1.1 ms at 50 MHz ... 453 mW/180 us at 300 MHz."""
        expected = {50: (183, 1100), 100: (259, 550),
                    200: (394, 270), 300: (453, 180)}
        system = UPaRCSystem(decompressor=None)
        for freq, (power_mw, time_us) in expected.items():
            result = system.run(paper_bitstream, frequency=mhz(freq))
            assert result.energy.mean_power_mw \
                == pytest.approx(power_mw, rel=0.005)
            assert result.transfer_ps / 1e6 \
                == pytest.approx(time_us, rel=0.03)

    def test_frequency_doubling_halves_time_not_power(self,
                                                      paper_bitstream):
        """'when the frequency is doubled, the reconfiguration time is
        halved, but the power is not doubled'"""
        system = UPaRCSystem(decompressor=None)
        r50 = system.run(paper_bitstream, frequency=mhz(50))
        r100 = system.run(paper_bitstream, frequency=mhz(100))
        assert r50.transfer_ps / r100.transfer_ps \
            == pytest.approx(2.0, rel=0.01)
        assert r100.energy.mean_power_mw / r50.energy.mean_power_mw < 1.6

    def test_uparc_0_66_uj_per_kb(self, paper_bitstream):
        """'UPaRC (without compression) consumes only 0.66 uJ/KB'"""
        result = UPaRCSystem(decompressor=None).run(
            paper_bitstream, frequency=mhz(100))
        assert result.energy.uj_per_kb == pytest.approx(0.66, rel=0.02)

    def test_xps_30_uj_per_kb(self, paper_bitstream):
        """'the energy efficiency is 30 uJ/KB of bitstream'"""
        result = XpsHwicap(profile="unoptimized").reconfigure(
            paper_bitstream, mhz(100))
        assert result.energy.uj_per_kb == pytest.approx(30, rel=0.05)
