#!/usr/bin/env python3
"""Power-aware frequency adaptation for a software-defined radio.

The scenario the paper's introduction motivates: a reconfigurable
system that must "auto-adapt to various performance and consumption
conditions ... during run-time".  An SDR terminal swaps demodulator
modules as the radio environment changes; each operating condition
imposes a different reconfiguration deadline and power budget:

* handover   — the link is down while the demodulator swaps: tightest
  deadline, power is secondary;
* background — scanning alternative bands: relaxed deadline, strict
  power budget (battery);
* emergency  — thermal alarm: hard power cap, best effort timing.

The Manager's frequency-adaptation policy picks the CLK_2 operating
point per condition (the paper's rule: lowest frequency that meets
the constraints) and the full system executes at that point.

Run:  python examples/adaptive_sdr_pipeline.py
"""

from repro import FrequencyPolicy, PowerModel, UPaRCSystem, \
    generate_bitstream
from repro.errors import PolicyError
from repro.report import render_table
from repro.units import DataSize, us

DEMODULATOR_KB = 156.0  # one demodulator partial bitstream

CONDITIONS = [
    # (name, deadline_us, power_budget_mw)
    ("handover", 500.0, None),
    ("background scan", 5000.0, 260.0),
    ("thermal emergency", None, 200.0),
]


def main() -> None:
    bitstream = generate_bitstream(size=DataSize.from_kb(DEMODULATOR_KB))
    policy = FrequencyPolicy(PowerModel())
    system = UPaRCSystem(decompressor=None)

    rows = []
    for name, deadline_us, budget_mw in CONDITIONS:
        deadline_ps = us(deadline_us) if deadline_us is not None else None
        point = policy.select(bitstream.size, deadline_ps=deadline_ps,
                              power_budget_mw=budget_mw)

        # Execute at the selected point to confirm the prediction.
        result = system.run(bitstream, frequency=point.frequency)
        rows.append([
            name,
            f"{deadline_us:g} us" if deadline_us is not None else "-",
            f"{budget_mw:g} mW" if budget_mw is not None else "-",
            str(point.frequency),
            result.transfer_ps / 1e6,
            result.energy.mean_power_mw,
            result.energy.energy_uj,
        ])

    print(render_table(
        ["condition", "deadline", "budget", "CLK_2", "time us",
         "power mW", "energy uJ"],
        rows, title="SDR demodulator swap under run-time constraints"))

    # What happens when constraints cannot be met together?
    try:
        policy.select(bitstream.size, deadline_ps=us(450),
                      power_budget_mw=200.0)
    except PolicyError as error:
        print(f"\ninfeasible request correctly rejected: {error}")


if __name__ == "__main__":
    main()
