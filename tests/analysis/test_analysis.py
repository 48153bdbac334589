"""Analysis harnesses: bandwidth surface, comparison, power sweep."""

import pytest

from repro.analysis.bandwidth import (
    FIG5_FREQUENCIES_MHZ,
    FIG5_SIZES_KB,
    anchor_points,
    bandwidth_surface,
)
from repro.analysis.comparison import (
    PAPER_TABLE3,
    compare_controllers,
    table3_controllers,
)
from repro.analysis.powersweep import (
    PAPER_FIG7,
    energy_comparison,
    fig7_power_sweep,
)
from repro.analysis.report import render_series, render_table


class TestBandwidthSurface:
    @pytest.fixture(scope="class")
    def mini_surface(self):
        return bandwidth_surface(sizes_kb=(6.5, 247.0),
                                 frequencies_mhz=(100.0, 362.5))

    def test_grid_complete(self, mini_surface):
        assert len(mini_surface) == 4

    def test_effective_below_theoretical(self, mini_surface):
        for point in mini_surface:
            assert point.effective_mbps < point.theoretical_mbps

    def test_larger_bitstreams_more_efficient(self, mini_surface):
        by_size = {}
        for point in mini_surface:
            if abs(point.frequency.mhz - 362.5) < 1e-6:
                by_size[point.size.kb] = point.efficiency_percent
        assert by_size[247.0] > by_size[6.5]

    def test_anchor_points_match_paper(self, mini_surface):
        anchors = anchor_points(mini_surface)
        assert anchors["small"] == pytest.approx(78.8, abs=1.5)
        assert anchors["large"] == pytest.approx(99.0, abs=1.0)

    def test_default_axes_are_the_papers(self):
        assert 6.5 in FIG5_SIZES_KB and 247.0 in FIG5_SIZES_KB
        assert 362.5 in FIG5_FREQUENCIES_MHZ

    def test_full_surface_monotone_along_both_axes(self):
        """Every size gains bandwidth with frequency, every frequency
        gains efficiency with size, and no cell of the paper's grid
        reaches the theoretical plane."""
        points = bandwidth_surface()
        by_cell = {(p.size.kb, p.frequency.mhz): p for p in points}
        for size_kb in FIG5_SIZES_KB:
            series = [by_cell[(size_kb, mhz)].effective_mbps
                      for mhz in FIG5_FREQUENCIES_MHZ]
            assert series == sorted(series), size_kb
        for mhz in FIG5_FREQUENCIES_MHZ:
            series = [by_cell[(size_kb, mhz)].efficiency_percent
                      for size_kb in FIG5_SIZES_KB]
            assert series == sorted(series), mhz
        assert all(p.effective_mbps < p.theoretical_mbps for p in points)


class TestComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return compare_controllers(size_kb=216.5)

    def test_seven_rows_in_paper_order(self, rows):
        assert [row.controller for row in rows] == list(PAPER_TABLE3)

    def test_all_verified(self, rows):
        assert all(row.verified for row in rows)

    def test_every_row_within_8_percent(self, rows):
        for row in rows:
            assert abs(row.relative_error_percent) < 8.0, row

    def test_ranking_matches_paper(self, rows):
        measured = [row.measured_mbps for row in rows]
        assert measured == sorted(measured)

    def test_grades_match(self, rows):
        for row in rows:
            assert row.grade == row.paper_grade

    def test_fmax_columns_match(self, rows):
        for row in rows:
            assert row.max_frequency_mhz == pytest.approx(
                row.paper_fmax_mhz)

    def test_uparc_vs_farm_factor(self, rows):
        by_name = {row.controller: row.measured_mbps for row in rows}
        assert by_name["UPaRC_i"] / by_name["FaRM"] \
            == pytest.approx(1.8, rel=0.03)

    def test_uparc_vs_cached_xps_hwicap_factor(self, rows):
        by_name = {row.controller: row.measured_mbps for row in rows}
        assert by_name["UPaRC_i"] / by_name["xps_hwicap[cached]"] > 90

    def test_controller_list_is_fresh(self):
        assert table3_controllers()[0] is not table3_controllers()[0]


class TestPowerSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return fig7_power_sweep()

    def test_four_fig7_points(self, points):
        assert len(points) == 4

    def test_plateaus_match_paper(self, points):
        for point in points:
            paper_mw, _ = PAPER_FIG7[point.frequency.mhz]
            assert point.plateau_mw == pytest.approx(paper_mw, rel=0.005)

    def test_durations_match_paper(self, points):
        for point in points:
            _, paper_us = PAPER_FIG7[point.frequency.mhz]
            assert point.reconfiguration_us \
                == pytest.approx(paper_us, rel=0.03)

    def test_doubling_frequency_halves_time_but_not_power(self, points):
        by_mhz = {point.frequency.mhz: point for point in points}
        t_ratio = (by_mhz[50.0].reconfiguration_us
                   / by_mhz[100.0].reconfiguration_us)
        p_ratio = by_mhz[100.0].plateau_mw / by_mhz[50.0].plateau_mw
        assert t_ratio == pytest.approx(2.0, rel=0.01)
        assert p_ratio < 1.6  # "the power is not doubled"

    def test_energy_decreases_with_frequency(self, points):
        # The paper's active-wait observation.
        energies = [point.energy_uj for point in points]
        assert energies == sorted(energies, reverse=True)

    def test_trace_decays_to_idle(self, points):
        for point in points:
            assert point.trace.samples[-1].value == point.idle_mw

    def test_trace_starts_at_idle_below_plateau(self, points):
        for point in points:
            assert point.trace.samples[0].value == point.idle_mw
            assert point.plateau_mw > point.idle_mw


class TestEnergyComparison:
    def test_45x_ratio(self):
        comparison = energy_comparison()
        assert comparison.efficiency_ratio == pytest.approx(45, rel=0.05)
        assert comparison.xps.uj_per_kb == pytest.approx(30, rel=0.05)
        assert comparison.uparc.uj_per_kb == pytest.approx(0.66, rel=0.05)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["name", "mbps"],
                            [["UPaRC_i", 1433.0], ["FaRM", 800.0]],
                            title="Table III")
        lines = text.splitlines()
        assert lines[0] == "Table III"
        assert "UPaRC_i" in text and "1433.0" in text
        # All data lines equal width.
        assert len(lines[2]) == len(lines[3])

    def test_render_series_scales_bars(self):
        text = render_series([(50.0, 183.0), (300.0, 453.0)],
                             title="Fig7", width=30)
        lines = text.splitlines()
        assert lines[0] == "Fig7"
        assert lines[-1].count("#") == 30
        assert lines[-2].count("#") < 30

    def test_render_series_empty(self):
        assert "(no data)" in render_series([], title="x")


class TestHeatmap:
    def test_shape_and_shading(self):
        from repro.analysis.report import render_heatmap
        text = render_heatmap(["a", "b"], ["x", "y"],
                              [[0.0, 50.0], [50.0, 100.0]],
                              title="t", corner="c")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "##" in lines[-1]   # the max cell gets full shade
        assert "  " in lines[2]    # the zero cell stays blank

    def test_dimension_mismatch_rejected(self):
        from repro.analysis.report import render_heatmap
        with pytest.raises(ValueError):
            render_heatmap(["a"], ["x", "y"], [[1.0]])


class TestFig7TraceShape:
    """The qualitative features the paper describes in prose."""

    @pytest.fixture(scope="class")
    def trace(self):
        points = fig7_power_sweep(frequencies_mhz=(100.0,),
                                  size_kb=32.0)
        return points[0].trace, points[0].idle_mw

    def test_manager_peak_before_start(self, trace):
        """'the power peak before zero timestamp is caused by the
        activity of the manager to control UPaRC'"""
        samples, idle = trace
        values = [s.value for s in samples.samples]
        plateau = max(values)
        control_level = 90.0  # static 30 + manager control 60
        before_plateau = values[:values.index(plateau)]
        assert control_level in [round(v, 6) for v in before_plateau]

    def test_rises_immediately_after_start(self, trace):
        """'This activity rises the power consumption immediately
        after the Start signal'"""
        samples, idle = trace
        values = [s.value for s in samples.samples]
        plateau = max(values)
        index = values.index(plateau)
        # The step to the plateau comes directly from a lower level.
        assert values[index - 1] < plateau

    def test_decays_to_idle_after_finish(self, trace):
        """'Once the reconfiguration is completed, the power
        consumption decreases to the idle power consumption.'"""
        samples, idle = trace
        assert samples.samples[-1].value == pytest.approx(idle)


class TestModeIiSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.analysis.bandwidth import mode_ii_bandwidth_sweep
        return mode_ii_bandwidth_sweep(sizes_kb=(6.5, 49.0, 216.5))

    def test_saturates_at_decompressor_ceiling(self, sweep):
        largest = max(sweep, key=lambda p: p.size.bytes)
        assert largest.effective_mbps \
            == pytest.approx(largest.theoretical_mbps, rel=0.02)
        assert largest.effective_mbps == pytest.approx(1000, rel=0.02)

    def test_small_sizes_pay_control_overhead(self, sweep):
        efficiencies = [p.efficiency_percent
                        for p in sorted(sweep,
                                        key=lambda p: p.size.bytes)]
        assert efficiencies == sorted(efficiencies)
        assert efficiencies[0] < efficiencies[-1]
