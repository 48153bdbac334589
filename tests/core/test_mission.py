"""Mission-level policy comparison (the §VI future-work study)."""

import pytest

from repro.core.mission import (
    POLICIES,
    SwapRequest,
    compare_policies,
    generate_mission,
    run_mission,
)
from repro.errors import PolicyError
from repro.power.calibration import Calibration
from repro.power.model import PowerModel
from repro.units import DataSize, ms


@pytest.fixture(scope="module")
def mission():
    return generate_mission(swap_count=120, seed=3)


class TestGeneration:
    def test_count_and_monotone_arrivals(self, mission):
        assert len(mission) == 120
        arrivals = [request.at_ps for request in mission]
        assert arrivals == sorted(arrivals)

    def test_deterministic(self):
        assert generate_mission(seed=5) == generate_mission(seed=5)

    def test_deadlines_positive(self, mission):
        assert all(request.deadline_ps > 0 for request in mission)

    def test_invalid_deadline_rejected(self):
        with pytest.raises(PolicyError):
            SwapRequest(at_ps=0, module="m", size=DataSize.from_kb(10),
                        deadline_ps=0)


class TestPolicies:
    def test_unknown_policy_rejected(self, mission):
        with pytest.raises(PolicyError):
            run_mission(mission, "overclock-everything")

    def test_all_policies_run_every_swap(self, mission):
        for name, result in compare_policies(mission).items():
            assert result.swaps == len(mission), name

    def test_power_aware_meets_every_feasible_deadline(self, mission):
        result = run_mission(mission, "power-aware")
        assert result.deadline_misses == result.infeasible == 0

    def test_max_frequency_meets_deadlines_too(self, mission):
        result = run_mission(mission, "max-frequency")
        assert result.deadline_misses == 0

    def test_power_aware_runs_cooler_than_max(self, mission):
        results = compare_policies(mission)
        assert results["power-aware"].mean_frequency_mhz \
            < results["max-frequency"].mean_frequency_mhz

    def test_energy_optimal_minimizes_energy_with_active_wait(self,
                                                              mission):
        results = compare_policies(mission)
        optimal = results["energy-optimal"].total_energy_uj
        for name, result in results.items():
            assert optimal <= result.total_energy_uj + 1e-9, name

    def test_with_active_wait_energy_optimal_is_fast(self, mission):
        # The paper's §V observation at mission scale.
        results = compare_policies(mission)
        assert results["energy-optimal"].mean_frequency_mhz \
            > results["power-aware"].mean_frequency_mhz

    def test_policies_registered(self):
        assert set(POLICIES) == {"max-frequency", "power-aware",
                                 "energy-optimal"}


class TestGatedManagerMission:
    def test_gated_manager_softens_the_energy_gap(self, mission):
        """With a hardware (clock-gated) manager, running slower no
        longer wastes wait energy, so the power-aware policy's energy
        penalty versus energy-optimal shrinks."""
        active = compare_policies(mission)
        gated = compare_policies(
            mission, power_model=PowerModel(hardware_manager=True))

        def penalty(results):
            aware = results["power-aware"].total_energy_uj
            optimal = results["energy-optimal"].total_energy_uj
            return aware / optimal

        assert penalty(gated) < penalty(active)
        for results in (active, gated):
            for name, result in results.items():
                assert result.deadline_misses == 0, name
