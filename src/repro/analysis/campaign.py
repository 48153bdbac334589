"""Multi-seed robustness campaigns.

The synthetic-bitstream substitution raises an obvious question: do
the reproduced results depend on the particular random seed?  These
campaigns re-run Table I and Table III across many generator seeds and
summarize the spread, so the claim "the ranking is a property of the
content *regime*, not of one lucky sample" is itself tested.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.bitstream.generator import generate_bitstream
from repro.compress import PAPER_TABLE1_RATIOS
from repro.controllers import CONTROLLERS
from repro.sweep import TABLE1_GRID, PayloadSpec, SweepEngine
from repro.units import DataSize


@dataclass(frozen=True)
class Spread:
    """Mean / standard deviation / extremes of one measured quantity."""

    mean: float
    std: float
    minimum: float
    maximum: float
    samples: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Spread":
        if not values:
            raise ValueError("no samples")
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) \
            / len(values)
        return cls(mean=mean, std=math.sqrt(variance),
                   minimum=min(values), maximum=max(values),
                   samples=len(values))


@dataclass(frozen=True)
class Table1Campaign:
    """Per-codec compression-ratio spread across seeds."""

    spreads: Dict[str, Spread]
    rankings: List[List[str]]      # measured ranking per seed

    @property
    def mean_ranking(self) -> List[str]:
        """Codecs ordered by their mean ratio across seeds."""
        return sorted(self.spreads, key=lambda name:
                      self.spreads[name].mean)

    @property
    def mean_ranking_matches_paper(self) -> bool:
        return self.mean_ranking == list(PAPER_TABLE1_RATIOS)

    @property
    def max_rank_displacement(self) -> int:
        """Worst per-seed deviation from the paper's ordering.

        0 = every seed ranks exactly like the paper; 1 = at most
        adjacent near-ties swap (the paper's own gaps between LZ77/
        Huffman and X-MatchPRO/LZ78 are under one percentage point,
        so single-sample swaps there are expected).
        """
        paper_rank = {name: rank for rank, name
                      in enumerate(PAPER_TABLE1_RATIOS)}
        worst = 0
        for ranking in self.rankings:
            for rank, name in enumerate(ranking):
                worst = max(worst, abs(rank - paper_rank[name]))
        return worst


def table1_campaign(seeds: Iterable[int] = range(1, 9),
                    size_kb: float = 48.0) -> Table1Campaign:
    """Table I across generator seeds: one sweep of the Table I grid
    over ``size_kb`` x ``seeds``."""
    payloads = tuple(PayloadSpec(size_kb=size_kb, seed=seed)
                     for seed in seeds)
    grid = dataclasses.replace(TABLE1_GRID, payloads=payloads)
    ratio = {(result.codec, result.seed): result.ratio_percent
             for result in SweepEngine(grid).run()}
    return Table1Campaign(
        spreads={name: Spread.of([ratio[name, payload.seed]
                                  for payload in payloads])
                 for name in PAPER_TABLE1_RATIOS},
        rankings=[sorted(PAPER_TABLE1_RATIOS,
                         key=lambda name: ratio[name, payload.seed])
                  for payload in payloads],
    )


@dataclass(frozen=True)
class Table3Campaign:
    """Per-controller bandwidth spread across seeds."""

    spreads: Dict[str, Spread]

    def coefficient_of_variation(self, controller: str) -> float:
        spread = self.spreads[controller]
        return spread.std / spread.mean if spread.mean else 0.0


def table3_campaign(seeds: Iterable[int] = range(1, 6),
                    size_kb: float = 64.0) -> Table3Campaign:
    """Table III across generator seeds.

    Bandwidths are timing-dominated, so the spread should be tiny for
    the raw-path controllers and content-driven only where compression
    ratios enter (staging capacity, not bandwidth) — a useful sanity
    property.
    """
    per_controller: Dict[str, List[float]] = {}
    for seed in seeds:
        bitstream = generate_bitstream(size=DataSize.from_kb(size_kb),
                                       seed=seed)
        for factory in CONTROLLERS.values():
            result = factory().best_result(bitstream)
            per_controller.setdefault(result.controller, []).append(
                result.bandwidth_decimal_mbps)
    return Table3Campaign(
        spreads={name: Spread.of(values)
                 for name, values in per_controller.items()},
    )
