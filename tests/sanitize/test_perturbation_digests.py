"""Same-instant perturbation must not move the paper's numbers.

Satellite of the sanitizer PR: the Fig. 5 bandwidth scenarios (mode i
preloaded and mode ii compressed) are digest-pinned elsewhere; here we
re-run them under seeded same-instant tie-break perturbation on
every available backend and require byte-identical event-stream and
output digests — i.e. the models' results depend only on orderings
the kernel actually guarantees.
"""

import pytest

from repro import accel
from repro.sanitize import DeterminismSanitizer
from repro.sweep import PayloadSpec, RunSpec, execute_spec

BACKENDS = accel.available_backends()

SEEDS = (1, 2, 3)


SMALLEST = PayloadSpec(size_kb=6.5, seed=2012)


def _cells(controller, frequencies_mhz):
    """``controller`` on the smallest Fig. 5 payload, one cell per
    frequency, as (size, MHz, MB/s, duration) tuples."""
    cells = [execute_spec(RunSpec(workload="reconfigure",
                                  controller=controller,
                                  frequency_mhz=mhz, payload=SMALLEST))[0]
             for mhz in frequencies_mhz]
    return [(cell.size_kb, cell.frequency_mhz, cell.effective_mbps,
             cell.duration_ps) for cell in cells]


def fig5_corner():
    """One small + one fast cell of the Fig. 5 surface (mode i)."""
    return _cells("UPaRC_i", (50.0, 362.5))


def mode_ii_corner():
    """The smallest mode-ii (compressed) sweep cell."""
    return _cells("UPaRC_ii", (255.0,))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scenario", [fig5_corner, mode_ii_corner],
                         ids=["fig5-mode-i", "mode-ii"])
def test_scenario_digests_survive_perturbation(backend, scenario):
    with accel.using(backend):
        sanitizer = DeterminismSanitizer(seeds=SEEDS)
        findings = sanitizer.check(scenario, name=scenario.__name__)
    assert findings == [], "\n".join(f.describe() for f in findings)
    # every perturbed run reproduced both digests bit-for-bit
    stream_digests = {r.stream_digest for r in sanitizer.runs}
    output_digests = {r.output_digest for r in sanitizer.runs}
    assert len(stream_digests) == 1
    assert len(output_digests) == 1
    # and the runs did real work through the kernel
    assert all(r.tasks_run > 0 for r in sanitizer.runs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_results_equal_under_direct_perturbation(backend):
    """Beyond digests: the numeric results themselves are identical."""
    import random

    from repro.sim import kernel as _kernel

    def perturbed(seed):
        def hook(sim):
            sim._perturb = random.Random(seed)
        previous = _kernel.set_construction_hook(hook)
        try:
            return mode_ii_corner()
        finally:
            _kernel.set_construction_hook(previous)

    with accel.using(backend):
        baseline = mode_ii_corner()
        for seed in SEEDS:
            assert perturbed(seed) == baseline
