#!/usr/bin/env python3
"""A two-region system: floorplan validation + time-multiplexed swaps.

A production partial-reconfiguration design serves several
reconfigurable partitions from one controller.  This example floorplans
two regions on the XC5VSX50T, generates region-targeted partial
bitstreams for a crypto and a DSP partition, and lets UPaRC swap both —
with the floorplan catching the classic deployment mistake of loading a
bitstream into the wrong partition *before* it scrambles the fabric.

Run:  python examples/multi_region_system.py
"""

from repro import Floorplan, Region, UPaRCSystem, generate_bitstream
from repro.bitstream.device import VIRTEX5_SX50T
from repro.bitstream.frames import BlockType, FrameAddress
from repro.errors import CapacityError
from repro.report import render_table
from repro.units import DataSize, Frequency


def far(column):
    return FrameAddress(BlockType.CLB_IO_CLK, top=0, row=0,
                        column=column, minor=0)


def main() -> None:
    floorplan = Floorplan(VIRTEX5_SX50T)
    crypto = floorplan.add_region(Region("crypto", far(4),
                                         frame_count=220))
    dsp = floorplan.add_region(Region("dsp", far(12),
                                      frame_count=520))
    for region in floorplan.regions:
        print(f"placed {region}  "
              f"(capacity {region.capacity(VIRTEX5_SX50T)})")

    modules = {
        "aes-128": (crypto, DataSize.from_kb(32)),
        "rsa-2048": (crypto, DataSize.from_kb(34)),
        "fir-bank": (dsp, DataSize.from_kb(80)),
        "fft-1k": (dsp, DataSize.from_kb(76)),
    }

    system = UPaRCSystem(decompressor=None)
    system.set_frequency(Frequency.from_mhz(362.5))

    rows = []
    for name, (region, size) in modules.items():
        bitstream = generate_bitstream(size=size, origin=region.origin,
                                       seed=hash(name) % 10_000,
                                       design_name=name)
        matched = floorplan.validate(bitstream, region.name)
        result = system.run(bitstream)
        rows.append([name, matched.name, str(bitstream.size),
                     result.transfer_ps / 1e6,
                     result.bandwidth_decimal_mbps,
                     result.frames_written])

    print()
    print(render_table(
        ["module", "region", "size", "swap us", "MB/s", "frames"],
        rows, title="Module swaps at 362.5 MHz"))

    # The deployment mistake: a DSP bitstream aimed at the crypto slot.
    rogue = generate_bitstream(size=DataSize.from_kb(80),
                               origin=dsp.origin, design_name="fir-bank")
    try:
        floorplan.validate(rogue, "crypto")
    except CapacityError as error:
        print(f"\nwrong-region load rejected: {error}")


if __name__ == "__main__":
    main()
