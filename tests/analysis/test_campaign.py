"""Multi-seed robustness campaigns."""

import pytest

from repro.analysis.campaign import (
    Spread,
    table1_campaign,
    table3_campaign,
)
from repro.compress import PAPER_TABLE1_RATIOS


class TestSpread:
    def test_of_constant(self):
        spread = Spread.of([5.0, 5.0, 5.0])
        assert spread.mean == 5.0
        assert spread.std == 0.0
        assert spread.samples == 3

    def test_of_values(self):
        spread = Spread.of([1.0, 3.0])
        assert spread.mean == 2.0
        assert spread.std == 1.0
        assert spread.minimum == 1.0
        assert spread.maximum == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Spread.of([])


class TestTable1Campaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return table1_campaign(seeds=range(1, 7), size_kb=32.0)

    def test_mean_ranking_matches_paper(self, campaign):
        assert campaign.mean_ranking_matches_paper

    def test_per_seed_deviations_only_adjacent_swaps(self, campaign):
        # Near-ties (<1 pp apart in the paper as well) may swap on a
        # single sample; nothing may move more than one rank.
        assert campaign.max_rank_displacement <= 1

    def test_spreads_are_tight(self, campaign):
        # The regime, not the sample, determines the ratio: the std
        # across seeds must be a small fraction of the mean.
        for name, spread in campaign.spreads.items():
            assert spread.std < 2.0, (name, spread)

    def test_means_near_paper_values(self, campaign):
        for name, spread in campaign.spreads.items():
            assert abs(spread.mean - PAPER_TABLE1_RATIOS[name]) < 5.0


class TestTable3Campaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return table3_campaign(seeds=range(1, 4), size_kb=48.0)

    def test_bandwidths_content_independent(self, campaign):
        # Transfer timing depends on size only; across same-size seeds
        # the bandwidth variation must be essentially zero.
        for name in campaign.spreads:
            assert campaign.coefficient_of_variation(name) < 1e-6, name

    def test_all_controllers_present(self, campaign):
        assert len(campaign.spreads) == 7
