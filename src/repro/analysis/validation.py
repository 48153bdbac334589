"""The reproduction acceptance gate.

Every claim EXPERIMENTS.md makes, encoded as data and checked by one
function call.  ``python -m repro selftest`` covers smoke-level
correctness; :func:`validate_reproduction` is the full gate — the
integration test suite and the release process both run it, so "the
paper is reproduced" is a program output, not prose.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from repro.analysis.comparison import compare_controllers
from repro.analysis.powersweep import (
    PAPER_FIG7,
    energy_comparison,
    fig7_power_sweep,
)
from repro.compress import PAPER_TABLE1_RATIOS
from repro.fpga.area import slices_for
from repro.sweep import (
    FIG5_GRID,
    TABLE1_GRID,
    PayloadSpec,
    SweepEngine,
    anchor_points,
    table1_ratios,
)


@dataclass(frozen=True)
class Claim:
    """One checkable reproduction claim."""

    source: str          # where in the paper
    statement: str       # what must hold
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    claims: List[Claim]

    @property
    def passed(self) -> bool:
        return all(claim.passed for claim in self.claims)

    @property
    def summary(self) -> str:
        good = sum(1 for claim in self.claims if claim.passed)
        return f"{good}/{len(self.claims)} claims hold"

    def failures(self) -> List[Claim]:
        return [claim for claim in self.claims if not claim.passed]


def _claim(source: str, statement: str, condition: bool,
           detail: str = "") -> Claim:
    return Claim(source=source, statement=statement, passed=condition,
                 detail=detail)


def validate_reproduction(quick: bool = False) -> ValidationReport:
    """Run every experiment and check every claim.

    ``quick=True`` shrinks workloads (smaller bitstreams, fewer grid
    points) for a sub-30-second gate; the full gate uses the paper's
    exact conditions.
    """
    claims: List[Claim] = []

    # ---- Table I ------------------------------------------------------
    corpus_kb = (32.0,) if quick else (49.0, 81.0, 156.0)
    corpus = dataclasses.replace(TABLE1_GRID, payloads=tuple(
        PayloadSpec(size_kb=kb, seed=int(kb) * 2 + 37)
        for kb in corpus_kb))
    measured = table1_ratios(SweepEngine(corpus).run())
    ranking = sorted(measured, key=measured.get)
    claims.append(_claim(
        "Table I", "codec ranking matches the paper",
        ranking == list(PAPER_TABLE1_RATIOS),
        detail=str(ranking)))
    worst = max(abs(measured[name] - paper)
                for name, paper in PAPER_TABLE1_RATIOS.items())
    claims.append(_claim(
        "Table I", "every ratio within 5 pp of the paper",
        worst < 5.0, detail=f"worst delta {worst:.1f} pp"))

    # ---- Table II ------------------------------------------------------
    table2 = {("dyclogen", "virtex5"): 24, ("dyclogen", "virtex6"): 18,
              ("urec", "virtex5"): 26, ("urec", "virtex6"): 26,
              ("decompressor", "virtex5"): 1035,
              ("decompressor", "virtex6"): 900}
    exact = all(slices_for(module, family) == expected
                for (module, family), expected in table2.items())
    claims.append(_claim("Table II", "slice counts exact", exact))

    # ---- Table III ------------------------------------------------------
    rows = compare_controllers(size_kb=48.0 if quick else 216.5)
    claims.append(_claim(
        "Table III", "all seven transfers CRC-verified",
        all(row.verified for row in rows)))
    bandwidths = [row.measured_mbps for row in rows]
    claims.append(_claim(
        "Table III", "controller ranking matches the paper",
        bandwidths == sorted(bandwidths)))
    worst_row = max(rows, key=lambda row:
                    abs(row.relative_error_percent))
    claims.append(_claim(
        "Table III", "every bandwidth within 8 % of the paper",
        abs(worst_row.relative_error_percent) < 8.0,
        detail=f"worst: {worst_row.controller} "
               f"{worst_row.relative_error_percent:+.1f}%"))
    by_name = {row.controller: row.measured_mbps for row in rows}
    factor = by_name["UPaRC_i"] / by_name["FaRM"]
    claims.append(_claim(
        "§IV", "UPaRC_i beats FaRM by ~1.8x",
        1.7 < factor < 1.9, detail=f"{factor:.2f}x"))

    # ---- Fig. 5 ------------------------------------------------------------
    corners = dataclasses.replace(
        FIG5_GRID,
        frequencies_mhz=(362.5,) if quick else (100.0, 362.5),
        payloads=tuple(payload for payload in FIG5_GRID.payloads
                       if payload.size_kb in (6.5, 247.0)))
    anchors = anchor_points(SweepEngine(corners).run())
    claims.append(_claim(
        "Fig. 5", "6.5 KB anchor near 78.8 % of theoretical",
        abs(anchors["small"] - 78.8) < 1.5,
        detail=f"{anchors['small']:.1f}%"))
    claims.append(_claim(
        "Fig. 5", "247 KB anchor near 99 % of theoretical",
        abs(anchors["large"] - 99.0) < 1.0,
        detail=f"{anchors['large']:.1f}%"))

    # ---- Fig. 7 --------------------------------------------------------------
    points = fig7_power_sweep(size_kb=32.0 if quick else 216.5)
    plateau_ok = all(
        abs(point.plateau_mw - PAPER_FIG7[point.frequency.mhz][0])
        / PAPER_FIG7[point.frequency.mhz][0] < 0.005
        for point in points)
    claims.append(_claim(
        "Fig. 7", "power plateaus match at all four frequencies",
        plateau_ok))
    if not quick:
        timing_ok = all(
            abs(point.reconfiguration_us
                - PAPER_FIG7[point.frequency.mhz][1])
            / PAPER_FIG7[point.frequency.mhz][1] < 0.03
            for point in points)
        claims.append(_claim(
            "Fig. 7", "reconfiguration times within 3 %", timing_ok))
    energies = [point.energy_uj for point in points]
    claims.append(_claim(
        "§V", "energy decreases with frequency (active wait)",
        energies == sorted(energies, reverse=True)))

    # ---- §V energy -------------------------------------------------------------
    comparison = energy_comparison(size_kb=64.0 if quick else 216.5)
    claims.append(_claim(
        "§V", "efficiency ratio ~45x",
        40.0 < comparison.efficiency_ratio < 50.0,
        detail=f"{comparison.efficiency_ratio:.1f}x"))

    return ValidationReport(claims=claims)
