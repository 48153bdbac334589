#!/usr/bin/env python3
"""Scheduling a task graph over two reconfigurable regions.

An OFDM receiver expressed as a task DAG: channel estimation and
equalization depend on the FFT; the decoder joins both branches; the
next symbol's FFT reuses the module already resident in its region.
One UPaRC instance serves both regions (reconfigurations serialize
through the single ICAP; preloads hide under computation).

Run:  python examples/task_graph_application.py
"""

from repro import DagScheduler, DagTask, generate_bitstream
from repro.report import render_table
from repro.units import DataSize, Frequency, us

MODULES = {
    "fft": 49,        # KB of partial bitstream
    "chan-est": 30,
    "equalizer": 49,
    "viterbi": 81,
}


def main() -> None:
    bitstreams = {name: generate_bitstream(size=DataSize.from_kb(kb),
                                           seed=kb, design_name=name)
                  for name, kb in MODULES.items()}

    def task(name, module, region, compute_us, deps=()):
        return DagTask(name=name, module=module,
                       bitstream=bitstreams[module], region=region,
                       compute_ps=us(compute_us), deps=deps)

    graph = [
        task("fft#0", "fft", "r0", 400),
        task("chan-est#0", "chan-est", "r1", 300, deps=("fft#0",)),
        task("equalize#0", "equalizer", "r0", 350, deps=("fft#0",
                                                         "chan-est#0")),
        task("decode#0", "viterbi", "r1", 600, deps=("equalize#0",)),
        # Next symbol: the FFT region was overwritten by the equalizer,
        # but r1's viterbi survives for symbol 1's decode (module reuse).
        task("fft#1", "fft", "r0", 400, deps=("decode#0",)),
        task("equalize#1", "equalizer", "r0", 350, deps=("fft#1",)),
        task("decode#1", "viterbi", "r1", 600, deps=("equalize#1",)),
    ]

    scheduler = DagScheduler(
        reconfiguration_frequency=Frequency.from_mhz(362.5))
    report = scheduler.schedule(graph)

    rows = [[entry.task, entry.phase, entry.start_ps / 1e6,
             entry.end_ps / 1e6]
            for entry in sorted(report.timeline,
                                key=lambda e: (e.start_ps, e.task))]
    print(render_table(["task", "phase", "start us", "end us"], rows,
                       title="OFDM receiver schedule (2 regions)"))

    serial = scheduler.serial_baseline(graph)
    print(f"\nmakespan: {report.makespan_ps / 1e6:.0f} us "
          f"(serial baseline {serial / 1e6:.0f} us, "
          f"{(1 - report.makespan_ps / serial) * 100:.0f}% saved)")
    print(f"reconfigurations: {report.reconfigurations}, "
          f"module reuses: {report.reuses}")


if __name__ == "__main__":
    main()
