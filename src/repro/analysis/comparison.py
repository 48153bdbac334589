"""Table III — the reconfiguration-controller shoot-out.

Runs every controller at its reference conditions on the same
bitstream and tabulates bandwidth, capacity grade and maximum
frequency next to the paper's published row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bitstream.generator import generate_bitstream
from repro.controllers import CONTROLLERS
from repro.units import DataSize

# The published Table III, keyed by our controller display names.
PAPER_TABLE3 = {
    "xps_hwicap[cached]": {"bandwidth": 14.5, "grade": "+++", "fmax": 120.0},
    "MST_ICAP": {"bandwidth": 235.0, "grade": "+++", "fmax": 120.0},
    "FlashCAP_i": {"bandwidth": 358.0, "grade": "++", "fmax": 120.0},
    "BRAM_HWICAP": {"bandwidth": 371.0, "grade": "-", "fmax": 120.0},
    "FaRM": {"bandwidth": 800.0, "grade": "++", "fmax": 200.0},
    "UPaRC_ii": {"bandwidth": 1008.0, "grade": "++", "fmax": 255.0},
    "UPaRC_i": {"bandwidth": 1433.0, "grade": "-", "fmax": 362.5},
}


@dataclass(frozen=True)
class ComparisonRow:
    """One Table III row: measured next to the paper's value."""

    controller: str
    measured_mbps: float
    paper_mbps: float
    grade: str
    paper_grade: str
    max_frequency_mhz: float
    paper_fmax_mhz: float
    verified: bool

    @property
    def relative_error_percent(self) -> float:
        return (self.measured_mbps - self.paper_mbps) \
            / self.paper_mbps * 100.0


def compare_controllers(size_kb: float = 216.5) -> List[ComparisonRow]:
    """Run the shoot-out and pair each row with the paper's number."""
    bitstream = generate_bitstream(size=DataSize.from_kb(size_kb))
    rows: List[ComparisonRow] = []
    for factory in CONTROLLERS.values():
        controller = factory()
        result = controller.best_result(bitstream)
        reference = PAPER_TABLE3[result.controller]
        rows.append(ComparisonRow(
            controller=result.controller,
            measured_mbps=result.bandwidth_decimal_mbps,
            paper_mbps=reference["bandwidth"],
            grade=str(controller.large_bitstream),
            paper_grade=reference["grade"],
            max_frequency_mhz=controller.max_frequency.mhz,
            paper_fmax_mhz=reference["fmax"],
            verified=result.verified,
        ))
    return rows
