"""Sensitivity-analysis extensions."""

import pytest

from repro.analysis.sensitivity import (
    bram_capacity_tradeoff,
    compression_threshold,
    control_overhead_sensitivity,
)
from repro.units import DataSize


class TestControlOverhead:
    def test_zero_overhead_approaches_theoretical(self):
        points = control_overhead_sensitivity(control_cycles=(0,))
        assert points[0].efficiency_percent > 99.5

    def test_paper_operating_point_reproduced(self):
        points = control_overhead_sensitivity(control_cycles=(120,))
        # The Fig. 5 anchor: ~78.8 % at 6.5 KB / 362.5 MHz.
        assert points[0].efficiency_percent == pytest.approx(78.8, abs=1.5)

    def test_efficiency_monotone_in_overhead(self):
        points = control_overhead_sensitivity()
        efficiencies = [p.efficiency_percent for p in points]
        assert efficiencies == sorted(efficiencies, reverse=True)

    def test_hardware_manager_wins_back_most_of_the_loss(self):
        points = {p.control_cycles: p.efficiency_percent
                  for p in control_overhead_sensitivity(
                      control_cycles=(12, 120))}
        # A 10x smaller hardware manager recovers well over half the
        # efficiency gap to theoretical.
        assert points[12] > points[120] + 0.5 * (100 - points[120]) - 3
        assert points[12] > 95


class TestBramCapacity:
    def test_stretch_factor_near_4x(self):
        points = bram_capacity_tradeoff(bram_kb=(256.0,))
        assert points[0].stretch_factor == pytest.approx(4.0, rel=0.15)

    def test_paper_992kb_datapoint(self):
        points = bram_capacity_tradeoff(bram_kb=(256.0,))
        assert points[0].compressed_limit.kb == pytest.approx(992,
                                                              rel=0.15)

    def test_limits_scale_with_bram(self):
        points = bram_capacity_tradeoff(bram_kb=(64.0, 128.0, 256.0))
        raw = [p.raw_limit.bytes for p in points]
        compressed = [p.compressed_limit.bytes for p in points]
        assert raw == sorted(raw)
        assert compressed == sorted(compressed)
        assert all(c > r for r, c in zip(raw, compressed))


class TestCompressionThreshold:
    MODULES = [20, 60, 120, 250, 400, 700, 950, 1500]  # KB

    def test_classification_partitions_population(self):
        point = compression_threshold(self.MODULES, bram_kb=256.0)
        assert point.modules_total == len(self.MODULES)
        assert (point.modules_raw + point.modules_compressed
                + point.modules_rejected) == point.modules_total

    def test_small_modules_raw(self):
        point = compression_threshold([20, 60, 120], bram_kb=256.0)
        assert point.modules_raw == 3
        assert point.modules_compressed == 0

    def test_huge_module_rejected(self):
        point = compression_threshold([5000], bram_kb=256.0)
        assert point.modules_rejected == 1

    def test_more_bram_moves_modules_to_raw(self):
        small = compression_threshold(self.MODULES, bram_kb=128.0)
        large = compression_threshold(self.MODULES, bram_kb=512.0)
        assert large.modules_raw > small.modules_raw
        assert large.modules_rejected <= small.modules_rejected
