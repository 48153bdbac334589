"""Dynamic determinism sanitizer: seeded same-instant perturbation.

The kernel's FIFO tie-break makes every run reproducible, but
reproducible is not the same as *order-independent*: a model whose
output depends on which of two same-instant, happens-before-unordered
callbacks fires first works today and breaks the moment an unrelated
change shifts a sequence number.  The static R702 rule approximates
this from source text; this module tests it on a real execution:

1. run the scenario unperturbed, recording an incremental digest of
   the event stream (per-instant sorted task-label multisets, chained
   with SHA-256 — invariant under *legal* same-instant reordering)
   plus a digest of captured stdout and the scenario's return value;
2. re-run with :attr:`Simulator._perturb` seeded so the kernel
   shuffles the order of unordered same-instant events (a random
   high field above each queue entry's sequence number) — every
   ordering it picks is one the happens-before relation allows;
3. diff the digests.  Any difference is an **S903** order-divergence
   finding, localised to the first simulation instant whose digest
   differs.

Because the perturbation only permutes orders the kernel never
promised, a clean model produces byte-identical digests for every
seed; that property is pinned for the paper's reproduction scenarios
in ``tests/sanitize/``.
"""

from __future__ import annotations

import hashlib
import io
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.sanitize.hb import HBTracker, Site, Task, TrackerListener
from repro.sanitize.race import ORDER_DIVERGENCE
from repro.sim import kernel as _kernel

#: Memory addresses in reprs vary per process; normalise them away
#: before digesting a scenario's return value.
_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]+")


class StreamRecorder(TrackerListener):
    """Chained per-instant digest of the task stream of one tracker.

    Within an instant the label list is sorted before hashing, so two
    runs that differ only by a legal same-instant permutation produce
    identical digests, while a run that executes *different work*
    (an extra event, a changed callback) diverges at exactly the
    first instant that differs.
    """

    def __init__(self) -> None:
        self._labels: List[str] = []
        self._chain = hashlib.sha256()
        self.instants: List[Tuple[int, str]] = []

    def on_task_begin(self, task: Task) -> None:
        self._labels.append(task.label)

    def on_instant_end(self, time_ps: int) -> None:
        payload = "\n".join(sorted(self._labels))
        self._labels.clear()
        self._chain.update(str(time_ps).encode("ascii"))
        self._chain.update(payload.encode("utf-8", "replace"))
        self.instants.append((time_ps, self._chain.hexdigest()))

    @property
    def digest(self) -> str:
        return self._chain.hexdigest()


@dataclass
class RunRecord:
    """Digests of one (possibly perturbed) scenario execution."""

    seed: Optional[int]
    stream_digest: str
    instants: Tuple[Tuple[int, str], ...]
    output_digest: str
    tasks_run: int

    @classmethod
    def empty(cls, seed: Optional[int]) -> "RunRecord":
        return cls(seed=seed, stream_digest="", instants=(),
                   output_digest="", tasks_run=0)


@dataclass
class DivergenceFinding:
    """One S903 order-divergence, ready for shared reporting."""

    scenario: str
    seed: int
    time_ps: int  # first divergent instant; -1 when only output moved
    detail: str
    rule_id: str = ORDER_DIVERGENCE
    count: int = 1
    justified: bool = False
    crossval_sites: Tuple[Site, ...] = ()

    def describe(self) -> str:
        where = (f"first divergent instant t={self.time_ps} ps"
                 if self.time_ps >= 0 else "output only")
        return (f"{self.rule_id} dynamic-order-divergence: scenario "
                f"{self.scenario!r} diverges under perturbation seed "
                f"{self.seed} ({where}) — {self.detail}")


class DeterminismSanitizer:
    """Re-runs a scenario under seeded tie-break perturbation.

    ``scenario`` is a zero-argument callable that builds and runs a
    simulation (and may return a value); every :class:`Simulator`
    constructed while it runs is recorded, and on perturbed runs each
    gets its own ``random.Random`` derived from the seed and the
    construction index, so perturbed runs are themselves reproducible.
    """

    def __init__(self, seeds: Tuple[int, ...] = (1, 2, 3),
                 justified: Tuple[str, ...] = ()) -> None:
        self.seeds = tuple(seeds)
        self.justified = tuple(justified)
        self.findings: List[DivergenceFinding] = []
        self.runs: List[RunRecord] = []

    def check(self, scenario: Callable[[], Any],
              name: str = "scenario") -> List[DivergenceFinding]:
        """Run baseline + one perturbed run per seed; diff digests."""
        baseline = self.run_once(scenario)
        self.runs.append(baseline)
        new_findings: List[DivergenceFinding] = []
        for seed in self.seeds:
            record = self.run_once(scenario, seed=seed)
            self.runs.append(record)
            finding = self._diff(name, baseline, record)
            if finding is not None:
                finding.justified = (
                    name in self.justified
                    or f"{ORDER_DIVERGENCE}:{name}" in self.justified)
                new_findings.append(finding)
        self.findings.extend(new_findings)
        return new_findings

    def run_once(self, scenario: Callable[[], Any],
                 seed: Optional[int] = None) -> RunRecord:
        """Execute ``scenario`` once under recording (and perturbation)."""
        recorders: List[Tuple[HBTracker, StreamRecorder]] = []

        def hook(sim: Any, _previous: Any = None) -> None:
            tracker = HBTracker(sim, label=f"sim{len(recorders)}")
            recorder = StreamRecorder()
            tracker.listeners.append(recorder)
            sim.sanitizer = tracker
            if seed is not None:
                sim._perturb = random.Random(
                    (seed << 8) ^ len(recorders))
            recorders.append((tracker, recorder))

        previous = _kernel.set_construction_hook(hook)
        captured = io.StringIO()
        try:
            with redirect_stdout(captured):
                result = scenario()
        finally:
            _kernel.set_construction_hook(previous)
            for tracker, _recorder in recorders:
                tracker.finish()
        merged = hashlib.sha256()
        instants: List[Tuple[int, str]] = []
        for _tracker, recorder in recorders:
            merged.update(recorder.digest.encode("ascii"))
            instants.extend(recorder.instants)
        output = hashlib.sha256()
        output.update(captured.getvalue().encode("utf-8", "replace"))
        output.update(
            _ADDRESS_RE.sub("0x", repr(result)).encode("utf-8",
                                                       "replace"))
        return RunRecord(
            seed=seed,
            stream_digest=merged.hexdigest(),
            instants=tuple(instants),
            output_digest=output.hexdigest(),
            tasks_run=sum(tracker.tasks_run
                          for tracker, _recorder in recorders),
        )

    def _diff(self, name: str, baseline: RunRecord,
              record: RunRecord) -> Optional[DivergenceFinding]:
        stream_moved = record.stream_digest != baseline.stream_digest
        output_moved = record.output_digest != baseline.output_digest
        if not stream_moved and not output_moved:
            return None
        time_ps = -1
        detail_parts: List[str] = []
        if stream_moved:
            time_ps = _first_divergence(baseline.instants,
                                        record.instants)
            detail_parts.append(
                f"event-stream digest {baseline.stream_digest[:12]} -> "
                f"{record.stream_digest[:12]}")
        if output_moved:
            detail_parts.append(
                f"output digest {baseline.output_digest[:12]} -> "
                f"{record.output_digest[:12]}")
        seed = record.seed if record.seed is not None else -1
        return DivergenceFinding(scenario=name, seed=seed,
                                 time_ps=time_ps,
                                 detail="; ".join(detail_parts))


def _first_divergence(baseline: Tuple[Tuple[int, str], ...],
                      perturbed: Tuple[Tuple[int, str], ...]) -> int:
    """Sim time of the first instant whose chained digest differs."""
    for (base_time, base_digest), (time_ps, digest) \
            in zip(baseline, perturbed):
        if base_time != time_ps or base_digest != digest:
            return min(base_time, time_ps)
    if len(baseline) != len(perturbed):
        longer = baseline if len(baseline) > len(perturbed) \
            else perturbed
        return longer[min(len(baseline), len(perturbed))][0]
    return -1
