"""External memories and DMA engines (the baselines' substrates)."""

import pytest

from repro.errors import CapacityError, FrequencyError, HardwareModelError
from repro.fpga.dma import CustomBurstReader, XilinxCentralDma
from repro.fpga.memory import CacheModel, CompactFlash, Ddr2Sdram
from repro.units import DataSize, Frequency


class TestCompactFlash:
    def test_read_duration_scales_with_size(self):
        cf = CompactFlash()
        small = cf.read_duration_ps(DataSize.from_kb(1))
        large = cf.read_duration_ps(DataSize.from_kb(10))
        assert large == pytest.approx(10 * small, rel=0.01)

    def test_sustained_rate(self):
        cf = CompactFlash(sustained_bandwidth_kbps=250)
        one_second_worth = DataSize(250 * 1024)
        assert cf.read_duration_ps(one_second_worth) \
            == pytest.approx(1e12, rel=0.001)

    def test_capacity_enforced(self):
        cf = CompactFlash(capacity=DataSize.from_kb(4))
        with pytest.raises(CapacityError):
            cf.read_duration_ps(DataSize.from_kb(5))


class TestDdr2:
    def test_default_efficiency_matches_mst_icap(self):
        # 24 / (24+25) = 49 % -> 235 MB/s of 480 at 120 MHz.
        ddr = Ddr2Sdram(burst_words=24, burst_setup_cycles=25)
        assert ddr.efficiency() == pytest.approx(24 / 49)
        mbps = ddr.effective_bandwidth_mbps(Frequency.from_mhz(120))
        assert mbps == pytest.approx(480 * 24 / 49 / 1.048576, rel=0.02)

    def test_read_cycles_full_bursts(self):
        ddr = Ddr2Sdram(burst_words=16, burst_setup_cycles=17)
        assert ddr.read_cycles(32) == 32 + 2 * 17

    def test_read_cycles_ragged_burst(self):
        ddr = Ddr2Sdram(burst_words=16, burst_setup_cycles=17)
        assert ddr.read_cycles(17) == 17 + 2 * 17

    def test_invalid_parameters(self):
        with pytest.raises(HardwareModelError):
            Ddr2Sdram(burst_words=0)
        with pytest.raises(HardwareModelError):
            Ddr2Sdram(burst_words=16).read_cycles(-1)


class TestCache:
    def test_hit_cycles(self):
        assert CacheModel().read_cycles(100) == 100

    def test_fits(self):
        cache = CacheModel(capacity=DataSize.from_kb(64))
        assert cache.fits(DataSize.from_kb(64))
        assert not cache.fits(DataSize.from_kb(65))


class TestXilinxCentralDma:
    def test_efficiency_below_one(self):
        dma = XilinxCentralDma()
        assert 0 < dma.efficiency() < 1.0

    def test_bram_hwicap_parameterization(self):
        dma = XilinxCentralDma(burst_words=24, burst_setup_cycles=7)
        assert dma.efficiency() == pytest.approx(24 / 31)

    def test_frequency_cap(self):
        dma = XilinxCentralDma()
        dma.check_frequency(Frequency.from_mhz(200))
        with pytest.raises(FrequencyError):
            dma.check_frequency(Frequency.from_mhz(201))

    def test_transfer_cycles(self):
        dma = XilinxCentralDma(burst_words=16, burst_setup_cycles=5)
        assert dma.transfer_cycles(16) == 21
        assert dma.transfer_cycles(0) == 0


class TestCustomBurstReader:
    def test_one_word_per_cycle_plus_setup(self):
        reader = CustomBurstReader(setup_cycles=2)
        assert reader.transfer_cycles(1000) == 1002
        assert reader.transfer_cycles(0) == 0

    def test_efficiency_is_unity(self):
        assert CustomBurstReader().efficiency() == 1.0

    def test_demonstrated_envelope(self):
        reader = CustomBurstReader()
        reader.check_frequency(Frequency.from_mhz(362.5))
        with pytest.raises(FrequencyError):
            reader.check_frequency(Frequency.from_mhz(363))

    def test_beats_central_dma_at_every_size(self):
        custom = CustomBurstReader()
        central = XilinxCentralDma()
        for words in (16, 100, 1000, 55424):
            assert custom.transfer_cycles(words) \
                < central.transfer_cycles(words)

    def test_design_advantage_over_central_dma(self):
        """Section III-B: the central DMA is slower per transfer and
        cannot run above 200 MHz; UReC's reader runs at 362.5 MHz."""
        custom = CustomBurstReader()
        central = XilinxCentralDma()
        words = DataSize.from_kb(216.5).words

        def mbps(engine, frequency):
            engine.check_frequency(frequency)
            seconds = frequency.duration_of(
                engine.transfer_cycles(words)) / 1e12
            return words * 4 / 1e6 / seconds

        central_200 = mbps(central, Frequency.from_mhz(200))
        # At equal frequency the custom reader wins by the burst
        # overhead.
        assert mbps(custom, Frequency.from_mhz(200)) / central_200 > 1.2
        with pytest.raises(FrequencyError):
            central.check_frequency(Frequency.from_mhz(362.5))
        # Against the central DMA's best operating point.
        assert mbps(custom, Frequency.from_mhz(362.5)) / central_200 > 2.3


def test_compact_flash_word_read_time():
    cf = CompactFlash(sustained_bandwidth_kbps=250)
    # 4 bytes at 250 KB/s = 15.625 us.
    assert cf.word_read_ps() == pytest.approx(15_625_000, rel=0.001)
