"""Deterministic replay: byte-identical reports, pinned digests.

The serve acceptance contract: one ``ServeSpec`` (stream seed
included) names exactly one SLO report, byte for byte — across fresh
processes, across accel backends, under S903 same-instant
perturbation, and for any bench worker count.
"""

import pytest

from repro import accel
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
    spec = ServeSpec(requests=300, load=1.5, batch_limit=4,
                     shed_infeasible=True, queue_limit=64,
                     tenant_limit=32)
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


def test_bench_document_identical_for_any_worker_count():
    spec = ServeSpec(requests=300, seed=9)
    serial = bench_serve(spec, loads=(0.5, 2.0), jobs=1)
    parallel = bench_serve(spec, loads=(0.5, 2.0), jobs=2)
    assert render_bench(serial) == render_bench(parallel)
