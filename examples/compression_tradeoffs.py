#!/usr/bin/env python3
"""Choosing a bitstream codec: ratio vs throughput vs area.

Section III-C stores over-sized bitstreams compressed; Section VI
proposes swapping the decompressor at run time "depending on the
requirements of compression ratios, hardware resources, different
frequency limits".  This example walks that decision for a concrete
design: a 256 KB staging BRAM that must hold modules up to 900 KB.

It measures every Table I codec on synthetic bitstreams, derives the
effective BRAM capacity each achieves, and cross-references the
hardware decompressor library for the ones with hardware streaming
implementations.

Run:  python examples/compression_tradeoffs.py
"""

from repro.bitstream.generator import generate_bitstream
from repro.compress import PAPER_TABLE1_RATIOS, all_codecs
from repro.fpga.area import PACKERS, ResourceInventory
from repro.fpga.decompressor import DECOMPRESSOR_LIBRARY
from repro.report import render_table
from repro.units import DataSize

BRAM_KB = 256.0
REQUIRED_MODULE_KB = 900.0

# Table I codec -> hardware decompressor (where one exists).
HARDWARE = {spec.codec_name: spec
            for spec in DECOMPRESSOR_LIBRARY.values()}


def main() -> None:
    corpus = [generate_bitstream(size=DataSize.from_kb(kb), seed=int(kb))
              for kb in (49, 81, 156)]

    rows = []
    for codec in all_codecs():
        ratios = [codec.measure(bs.raw_bytes) for bs in corpus]
        mean_ratio = sum(r.ratio_percent for r in ratios) / len(ratios)
        factor = sum(r.factor for r in ratios) / len(ratios)
        capacity_kb = BRAM_KB * factor
        spec = HARDWARE.get(codec.name)
        if spec is not None:
            throughput = spec.output_bandwidth_mbps(spec.max_frequency)
            slices = PACKERS["virtex5"].slices(
                ResourceInventory(luts=spec.luts, ffs=spec.ffs))
            hw = f"{throughput * 1.048576:.0f} MB/s, {slices} slices"
        else:
            hw = "software only"
        feasible = "yes" if capacity_kb >= REQUIRED_MODULE_KB else "no"
        rows.append([codec.name, mean_ratio,
                     PAPER_TABLE1_RATIOS[codec.name],
                     capacity_kb, feasible, hw])

    print(render_table(
        ["codec", "ratio %", "paper %", "eff. capacity KB",
         f">= {REQUIRED_MODULE_KB:g} KB?", "hardware decompressor"],
        rows,
        title=f"Codec selection for a {BRAM_KB:g} KB staging BRAM"))

    print(
        "\nThe paper's choice: X-MatchPRO -- the best ratio among codecs"
        "\nwith a gigabit-rate hardware implementation (Zip/7-zip ratios"
        "\nare higher but have no streaming hardware at these rates),"
        "\nstretching 256 KB to ~992 KB of raw bitstream."
    )


if __name__ == "__main__":
    main()
