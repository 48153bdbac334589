#!/usr/bin/env python3
"""Hiding bitstream preloads in computation idle time.

Section III-A-1: a scheduler that knows the next tasks can preload
their bitstreams into the dual-port BRAM while the current task
computes, leaving only the (ultra-fast) reconfiguration itself on the
critical path.

The scenario: a vision pipeline that time-multiplexes one
reconfigurable region across four accelerators per frame.

Run:  python examples/prefetch_pipeline.py [--trace trace.json]

With ``--trace`` both computed schedules are exported as Chrome
trace_event timelines — one trace "process" per strategy, one lane
per task — so the preload/compute overlap is visible side by side in
Perfetto (https://ui.perfetto.dev).  Summarise from the terminal with
``python -m repro obs``.
"""

import argparse

from repro import PrefetchScheduler, Task, generate_bitstream, obs
from repro.report import render_table
from repro.units import DataSize, Frequency, ms

PIPELINE = [
    # (accelerator, bitstream KB, compute per frame)
    ("debayer", 49, ms(2.0)),
    ("denoise", 81, ms(3.5)),
    ("optical-flow", 156, ms(6.0)),
    ("h264-me", 81, ms(4.0)),
]


def schedules_to_trace(reports) -> obs.Tracer:
    """Export schedule timelines as trace spans, one pid per strategy."""
    tracer = obs.Tracer()
    for strategy in sorted(reports):
        report = reports[strategy]
        pid = tracer.register(f"schedule:{strategy}")
        for entry in sorted(report.timeline,
                            key=lambda e: (e.start_ps, e.task)):
            tracer.add_span(obs.SpanRecord(
                name=f"{entry.task}.{entry.phase}", cat="schedule",
                pid=pid, track=entry.task,
                start_ps=entry.start_ps, end_ps=entry.end_ps))
    return tracer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace_event JSON of the "
                             "computed schedules")
    # parse_known_args: the example-smoke tests execute this file
    # in-process under the test runner's argv.
    args, _ = parser.parse_known_args()
    reports = run()
    if args.trace:
        count = obs.write_chrome_trace(schedules_to_trace(reports),
                                       args.trace)
        print(f"\ntrace: {count} events -> {args.trace}")


def run():
    tasks = [
        Task(name, generate_bitstream(size=DataSize.from_kb(kb), seed=kb),
             compute_ps=compute)
        for name, kb, compute in PIPELINE
    ]
    scheduler = PrefetchScheduler(
        reconfiguration_frequency=Frequency.from_mhz(362.5))

    reports = scheduler.compare(tasks)
    for strategy, report in reports.items():
        rows = [[entry.task, entry.phase,
                 entry.start_ps / 1e9, entry.end_ps / 1e9]
                for entry in sorted(report.timeline,
                                    key=lambda e: (e.start_ps, e.task))]
        print(render_table(
            ["task", "phase", "start ms", "end ms"], rows,
            title=f"{strategy} schedule "
                  f"(makespan {report.makespan_ps / 1e9:.3f} ms)"))
        print()

    saved = scheduler.savings_percent(tasks)
    sequential = reports["sequential"].makespan_ps / 1e9
    prefetch = reports["prefetch"].makespan_ps / 1e9
    print(f"frame time: {sequential:.3f} ms -> {prefetch:.3f} ms "
          f"({saved:.1f}% saved by prefetching)")
    fps_before = 1000.0 / sequential
    fps_after = 1000.0 / prefetch
    print(f"throughput: {fps_before:.1f} -> {fps_after:.1f} frames/s")
    return reports


if __name__ == "__main__":
    main()
