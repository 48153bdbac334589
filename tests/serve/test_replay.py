"""Deterministic replay: byte-identical reports, pinned digests.

The serve acceptance contract: one ``ServeSpec`` (stream seed
included) names exactly one SLO report, byte for byte — across fresh
processes, across accel backends, under S903 same-instant
perturbation, and for any bench worker count.
"""

from dataclasses import replace

import pytest

from repro import accel
from repro.obs import KernelObserver, TraceScope
from repro.sanitize import DeterminismSanitizer
from repro.serve import (
    FleetService,
    ServeSpec,
    bench_serve,
    build_report,
    generate_requests,
    render_bench,
    request_stream_digest,
)
from repro.serve.fleet import ServiceTimeTable
from repro.serve.spec import TenantSpec
from repro.sim.kernel import Simulator

BACKENDS = accel.available_backends()

#: A saturating scenario (load 6 with tight queues sheds ~20% of the
#: stream) pinned by its report digest.  A change here means serve
#: semantics moved: scheduler policy, service-time model, workload
#: generation or report rendering.  Update deliberately.
PINNED_SPEC = ServeSpec(requests=600, load=6.0, seed=4242,
                        queue_limit=32, tenant_limit=16,
                        batch_limit=4, shed_infeasible=True,
                        preempt=True)
PINNED_DIGEST = \
    "49660b6561387b5a05f3e48d4995bc952c1b0c9cc7a4a31f8d0401deabc71a4b"

#: A replay that preempts: background bulk loads fill both boards and
#: urgent ``rt`` requests with a 35 us budget interrupt them, so the
#: preemption path and the stale-completion drain both run (16 times
#: each).  Pinned like ``PINNED_SPEC``.
PREEMPT_SPEC = ServeSpec(
    tenants=(TenantSpec("bulk", weight=3.0,
                        modules=("matrix_mult", "turbo_decoder"),
                        priority=3, deadline_us=20000.0),
             TenantSpec("rt", weight=1.0, modules=("aes_core",),
                        priority=0, deadline_us=35.0)),
    boards=2, load=1.0, seed=7, requests=600, preempt=True)
PREEMPT_DIGEST = \
    "46966e74690bab114346136ac7c417f61f618ecd743618015681bb2499f12d0a"

#: The spec of the S903 perturbation scenarios.
S903_SPEC = ServeSpec(requests=300, load=1.5, batch_limit=4,
                      shed_infeasible=True, queue_limit=64,
                      tenant_limit=32)


def run_report(spec):
    table = ServiceTimeTable(spec)
    requests = generate_requests(spec, table.resolved_rate_rps())
    outcome = FleetService(spec, table=table).run(requests)
    return build_report(outcome)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pinned_digest(backend):
    with accel.using(backend):
        report = run_report(PINNED_SPEC)
    assert report.shed > 0  # the scenario really saturates
    assert report.digest == PINNED_DIGEST


@pytest.mark.parametrize("backend", BACKENDS)
def test_pinned_preemption_digest(backend):
    with accel.using(backend):
        report = run_report(PREEMPT_SPEC)
    assert report.preemptions > 0
    assert report.stale_completions > 0
    assert report.digest == PREEMPT_DIGEST


def test_pinned_preemption_digest_under_perturbation():
    table = ServiceTimeTable(PREEMPT_SPEC)
    requests = generate_requests(PREEMPT_SPEC, table.resolved_rate_rps())

    def scenario():
        report = build_report(
            FleetService(PREEMPT_SPEC, table=table).run(list(requests)))
        assert report.preemptions > 0
        assert report.stale_completions > 0
        return report.digest

    sanitizer = DeterminismSanitizer(seeds=(1, 2, 3))
    findings = sanitizer.check(scenario, name="serve-preempt")
    assert findings == [], "\n".join(f.describe() for f in findings)
    assert scenario() == PREEMPT_DIGEST
    assert len({run.output_digest for run in sanitizer.runs}) == 1


def test_report_bytes_identical_across_backends():
    spec = ServeSpec(requests=400, seed=77)
    renderings = set()
    for backend in BACKENDS:
        with accel.using(backend):
            renderings.add(run_report(spec).to_json())
    assert len(renderings) == 1


def test_report_embeds_stream_digest():
    spec = ServeSpec(requests=200)
    table = ServiceTimeTable(spec)
    requests = generate_requests(spec, table.resolved_rate_rps())
    report = build_report(FleetService(spec, table=table).run(requests))
    assert report.stream_digest == request_stream_digest(requests)


def test_s903_perturbation_invariant():
    spec = S903_SPEC
    table = ServiceTimeTable(spec)
    requests = generate_requests(spec, table.resolved_rate_rps())

    def scenario():
        report = build_report(
            FleetService(spec, table=table).run(list(requests)))
        return report.digest

    sanitizer = DeterminismSanitizer(seeds=(1, 2, 3))
    findings = sanitizer.check(scenario, name="serve-replay")
    assert findings == [], "\n".join(f.describe() for f in findings)
    assert len({run.stream_digest for run in sanitizer.runs}) == 1
    assert len({run.output_digest for run in sanitizer.runs}) == 1
    assert all(run.tasks_run > 0 for run in sanitizer.runs)


def snapped(requests, grid_ps: int):
    """The stream with each arrival moved down onto a ``grid_ps`` grid.

    Deadlines keep their budget.  Requests sharing a grid point arrive
    together, so one pass dispatches several boards and equal-time
    (warm) loads complete at one instant.
    """
    moved = []
    for request in requests:
        shift = request.arrival_ps % grid_ps
        moved.append(replace(request,
                             arrival_ps=request.arrival_ps - shift,
                             deadline_ps=request.deadline_ps - shift))
    return moved


class _InstantCounter(KernelObserver):
    """Counts dispatched kernel events per simulation instant."""

    def __init__(self, sim):
        super().__init__(TraceScope(sim))
        self.per_instant = {}

    def event_fired(self, time_ps: int, depth: int) -> None:
        super().event_fired(time_ps, depth)
        self.per_instant[time_ps] = self.per_instant.get(time_ps, 0) + 1


def events_per_instant(spec, table, requests):
    sim = Simulator()
    sim.observer = _InstantCounter(sim)
    FleetService(spec, table=table, sim=sim).run(list(requests))
    return sim.observer.per_instant


def test_s903_snapped_stream_perturbation_invariant():
    # The generated stream never puts two kernel events on one
    # instant (arrivals are strictly increasing and service times are
    # picosecond-exact), so the perturbation test above has nothing
    # to reorder.  Snapping arrivals onto a 20 us grid does: several
    # completions share an instant, which S903 then shuffles.
    table = ServiceTimeTable(S903_SPEC)
    requests = snapped(
        generate_requests(S903_SPEC, table.resolved_rate_rps()),
        grid_ps=20_000_000)
    assert max(events_per_instant(S903_SPEC, table, requests).values()) \
        >= 2

    def scenario():
        return build_report(
            FleetService(S903_SPEC, table=table).run(list(requests))
        ).digest

    sanitizer = DeterminismSanitizer(seeds=(1, 2, 3))
    findings = sanitizer.check(scenario, name="serve-replay-snapped")
    assert findings == [], "\n".join(f.describe() for f in findings)
    assert len({run.output_digest for run in sanitizer.runs}) == 1


def test_bench_document_identical_for_any_worker_count():
    spec = ServeSpec(requests=300, seed=9)
    serial = bench_serve(spec, loads=(0.5, 2.0), jobs=1)
    parallel = bench_serve(spec, loads=(0.5, 2.0), jobs=2)
    assert render_bench(serial) == render_bench(parallel)
