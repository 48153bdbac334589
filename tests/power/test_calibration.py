"""Power calibration against the paper's Section V numbers."""

import pytest

from repro.errors import CalibrationError
from repro.power.calibration import Calibration, ML605_CALIBRATION
from repro.units import DataSize, Frequency


class TestMl605Calibration:
    def test_fig7_points_recorded(self):
        points = ML605_CALIBRATION.fig7_points_mhz_mw
        assert points == {50.0: 183.0, 100.0: 259.0,
                          200.0: 394.0, 300.0: 453.0}

    def test_uparc_busy_power_exact_at_table_points(self):
        for mhz, total in ML605_CALIBRATION.fig7_points_mhz_mw.items():
            assert ML605_CALIBRATION.uparc_busy_mw(mhz) \
                == pytest.approx(total)

    def test_interpolation_between_points(self):
        mid = ML605_CALIBRATION.uparc_busy_mw(150.0)
        assert 259.0 < mid < 394.0

    def test_extrapolation_beyond_300(self):
        # The 362.5 MHz point extends the 200-300 segment.
        high = ML605_CALIBRATION.uparc_busy_mw(362.5)
        assert high > 453.0
        slope = (453.0 - 394.0) / 100.0
        assert high == pytest.approx(453.0 + slope * 62.5)

    def test_low_frequency_scales_toward_floor(self):
        low = ML605_CALIBRATION.uparc_busy_mw(25.0)
        floor = (ML605_CALIBRATION.static_mw
                 + ML605_CALIBRATION.manager_wait_mw)
        assert floor < low < 183.0

    def test_xps_busy_is_45mw(self):
        # Section V: 30 uJ/KB at 1.5 MB/s implies 45 mW.
        assert ML605_CALIBRATION.xps_busy_mw() == pytest.approx(45.0)

    def test_energy_anchors_are_mutually_consistent(self):
        # UPaRC at 100 MHz: 259 mW for ~554 us over 216.5 KB.
        uparc_uj_per_kb = 259e-3 * 554.3e-6 * 1e6 / 216.5
        # xps: 45 mW at 1.5 MB/s.
        xps_uj_per_kb = 45e-3 / (1.5e3 / 1e6) / 1e3 * 1e3 / 1024 * 1000
        xps_uj_per_kb = 45e-3 / (1.5 * 1e6 / 1024) * 1e6  # mW / (KB/s) -> uJ/KB
        assert uparc_uj_per_kb == pytest.approx(0.66, rel=0.02)
        assert xps_uj_per_kb == pytest.approx(30.0, rel=0.05)
        assert xps_uj_per_kb / uparc_uj_per_kb == pytest.approx(45, rel=0.05)

    def test_analytic_fit_within_10_percent_of_table(self):
        for mhz in (50.0, 100.0, 200.0, 300.0):
            table = ML605_CALIBRATION.uparc_busy_mw(mhz)
            fit = ML605_CALIBRATION.uparc_busy_mw(mhz, analytic=True)
            assert abs(fit - table) / table < 0.10

    def test_chain_split_sums_to_one(self):
        assert sum(ML605_CALIBRATION.chain_split.values()) \
            == pytest.approx(1.0)


class TestManagerWaitAblation:
    """Section V: "The manager waits for the end of reconfiguration
    actively.  This wastes some energy, that is why the energy
    decreases with the frequency, but in the case of a smaller manager
    or without actively waiting ... the reconfiguration energy would
    be the same for each frequencies."

    Energy of one 216.5 KB reconfiguration across the Fig. 7 clocks
    under three configurations: the paper's active-wait manager, a
    clock-gated manager, and an idealised pure-CV^2f chain.
    """

    FREQUENCIES = (50.0, 100.0, 200.0, 300.0)

    @pytest.fixture(scope="class")
    def energies(self):
        calibration = ML605_CALIBRATION
        # Pure-dynamic slope through the origin (mW per MHz), least
        # squares over the sweep.
        slope = sum(mhz * calibration.chain_dynamic_mw(mhz)
                    for mhz in self.FREQUENCIES) \
            / sum(mhz * mhz for mhz in self.FREQUENCIES)
        cycles = DataSize.from_kb(216.5).words + 3
        rows = {"active": [], "gated": [], "ideal": []}
        for mhz in self.FREQUENCIES:
            seconds = Frequency.from_mhz(mhz).duration_of(cycles) / 1e12
            chain = calibration.chain_dynamic_mw(mhz)
            static = calibration.static_mw
            wait = calibration.manager_wait_mw
            rows["active"].append((static + wait + chain) * seconds * 1e3)
            rows["gated"].append((static + chain) * seconds * 1e3)
            rows["ideal"].append(slope * mhz * seconds * 1e3)
        return rows

    def test_active_wait_energy_falls_with_frequency(self, energies):
        active = energies["active"]
        assert active == sorted(active, reverse=True)

    def test_gating_the_manager_shrinks_the_spread(self, energies):
        def spread(values):
            return max(values) / min(values)
        assert spread(energies["gated"]) < spread(energies["active"])

    def test_ideal_dynamic_energy_is_frequency_independent(self, energies):
        # Up to the constant burst-setup cycles.
        ideal = energies["ideal"]
        assert max(ideal) / min(ideal) < 1.001

    def test_gating_always_saves_most_at_low_frequency(self, energies):
        savings = [active - gated for active, gated
                   in zip(energies["active"], energies["gated"])]
        assert all(saving > 0 for saving in savings)
        assert savings[0] > savings[-1]


class TestValidation:
    def test_too_few_points_rejected(self):
        with pytest.raises(CalibrationError):
            Calibration(board="x", fig7_points_mhz_mw={100.0: 259.0})

    def test_point_below_floor_rejected(self):
        with pytest.raises(CalibrationError):
            Calibration(board="x",
                        fig7_points_mhz_mw={50.0: 40.0, 100.0: 259.0})

    def test_nonpositive_power_rejected(self):
        with pytest.raises(CalibrationError):
            Calibration(board="x",
                        fig7_points_mhz_mw={50.0: -1.0, 100.0: 259.0})

    def test_bad_chain_split_rejected(self):
        with pytest.raises(CalibrationError):
            Calibration(board="x",
                        fig7_points_mhz_mw={50.0: 183.0, 100.0: 259.0},
                        chain_split={"bram": 0.5})

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(CalibrationError):
            ML605_CALIBRATION.chain_dynamic_mw(0.0)
