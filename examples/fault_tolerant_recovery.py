#!/usr/bin/env python3
"""Fault recovery latency: why reconfiguration speed buys availability.

The paper's introduction: "A long inactive period of a part inside a
system may be prohibited in certain applications especially in
high-performance or fault-tolerant systems."

Scenario: a triple-modular-redundant processing card detects an upset
in one lane and must scrub it by rewriting the lane's partial
bitstream.  While the lane is down, the system runs degraded (2-of-3
voting).  This example computes the degraded-mode time per scrub and
the resulting availability over a mission, for every controller in
Table III.

Run:  python examples/fault_tolerant_recovery.py
"""

from repro.analysis.reliability import controller_reliability
from repro.bitstream.generator import generate_bitstream
from repro.controllers import CONTROLLERS
from repro.report import render_table
from repro.units import DataSize

LANE_BITSTREAM_KB = 216.5
UPSETS_PER_HOUR = 120.0  # aggressive orbital environment
MISSION_HOURS = 24.0


def main() -> None:
    bitstream = generate_bitstream(
        size=DataSize.from_kb(LANE_BITSTREAM_KB))

    rows = []
    for factory in CONTROLLERS.values():
        result = factory().best_result(bitstream)
        scrub_us = result.duration_ps / 1e6
        degraded_s = (UPSETS_PER_HOUR * MISSION_HOURS
                      * result.duration_ps / 1e12)
        availability = 1.0 - degraded_s / (MISSION_HOURS * 3600.0)
        rows.append([
            result.controller,
            result.bandwidth_decimal_mbps,
            scrub_us,
            degraded_s,
            f"{availability * 100:.6f}%",
        ])

    print(render_table(
        ["controller", "MB/s", "scrub us", "degraded s / mission",
         "lane availability"],
        rows,
        title=f"TMR lane scrubbing ({LANE_BITSTREAM_KB:g} KB lane, "
              f"{UPSETS_PER_HOUR:g} upsets/h, {MISSION_HOURS:g} h)"))

    fastest = min(rows, key=lambda row: row[2])
    slowest = max(rows, key=lambda row: row[2])
    print(f"\n{fastest[0]} keeps the lane down "
          f"{slowest[3] / fastest[3]:.0f}x less than {slowest[0]} "
          f"over the mission.")

    # With periodic readback-scrubbing instead of instant detection,
    # the optimal scrub period itself depends on repair speed.
    print()
    scrub_rows = []
    for factory in CONTROLLERS.values():
        result = factory().best_result(bitstream)
        repair_s = result.duration_ps / 1e12
        report = controller_reliability(
            result.controller, repair_s,
            upset_rate_per_s=UPSETS_PER_HOUR / 3600.0)
        scrub_rows.append([
            report.controller,
            report.policy.period_s * 1000.0,
            f"{report.availability * 100:.5f}%",
            report.downtime_s_per_day,
        ])
    print(render_table(
        ["controller", "optimal scrub ms", "availability",
         "downtime s/day"],
        scrub_rows,
        title="Blind periodic scrubbing at the optimal period"))


if __name__ == "__main__":
    main()
