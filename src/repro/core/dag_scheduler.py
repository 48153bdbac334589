"""DAG scheduling of hardware tasks across reconfigurable regions.

Generalizes the linear prefetch pipeline of
:mod:`repro.core.scheduler` to the setting the paper's introduction
motivates: an application expressed as a *task graph*, time-multiplexed
over several reconfigurable regions by one UPaRC instance.

Resource model:

* each **region** holds one configured module and executes one task at
  a time; different regions compute in parallel;
* the **ICAP** is a single port: reconfigurations serialize through it
  (as on the silicon);
* the **manager/BRAM staging** path is also serial: one preload at a
  time, but preloads overlap both computation and other regions'
  reconfigurations (the dual-port BRAM argument of Section III-B);
* a region that already holds the required module skips its
  reconfiguration entirely — the hardware-sharing benefit the paper's
  Related Work opens with.

Scheduling is priority list scheduling over a topological order, with
the critical-path (longest downstream work) priority; the stdlib
:mod:`graphlib` gives the topological order and finds cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bitstream.generator import PartialBitstream
from repro.core.scheduler import TimelineEntry
from repro.errors import PolicyError
from repro.units import DataSize, Frequency


@dataclass(frozen=True)
class DagTask:
    """One node of the application graph."""

    name: str
    module: str                     # which hardware module it needs
    bitstream: PartialBitstream     # that module's partial bitstream
    region: str                     # region it must execute in
    compute_ps: int
    deps: Sequence[str] = ()

    def __post_init__(self) -> None:
        if self.compute_ps < 0:
            raise PolicyError(f"task {self.name!r}: negative compute time")


@dataclass
class DagScheduleReport:
    """Timeline plus derived metrics."""

    timeline: List[TimelineEntry] = field(default_factory=list)
    reconfigurations: int = 0
    reuses: int = 0

    @property
    def makespan_ps(self) -> int:
        return max((entry.end_ps for entry in self.timeline), default=0)

    def entries_for(self, task: str) -> Dict[str, TimelineEntry]:
        return {entry.phase: entry for entry in self.timeline
                if entry.task == task}

    def compute_end(self, task: str) -> int:
        return self.entries_for(task)["compute"].end_ps


class DagScheduler:
    """Critical-path list scheduler for task graphs over regions."""

    def __init__(self,
                 reconfiguration_frequency: Frequency,
                 preload_bandwidth_mbps: float = 50.0,
                 control_overhead_ps: int = 1_200_000,
                 burst_setup_cycles: int = 3) -> None:
        if preload_bandwidth_mbps <= 0:
            raise PolicyError("preload bandwidth must be positive")
        self._frequency = reconfiguration_frequency
        self._preload_bandwidth_mbps = preload_bandwidth_mbps
        self._control_overhead_ps = control_overhead_ps
        self._burst_setup_cycles = burst_setup_cycles

    # -- primitive durations ------------------------------------------------

    def preload_ps(self, size: DataSize) -> int:
        bytes_per_ps = self._preload_bandwidth_mbps * 1024 * 1024 / 1e12
        return round(size.bytes / bytes_per_ps)

    def reconfigure_ps(self, size: DataSize) -> int:
        cycles = size.words + 1 + self._burst_setup_cycles
        return self._frequency.duration_of(cycles) \
            + self._control_overhead_ps

    # -- graph utilities -------------------------------------------------------

    def _build_graph(self, tasks: Sequence[DagTask]
                     ) -> Tuple[Dict[str, DagTask], Dict[str, List[str]]]:
        """Validate ``tasks``; return them by name, and each task's
        successors keyed in a topological order."""
        by_name = {task.name: task for task in tasks}
        if len(by_name) != len(tasks):
            raise PolicyError("duplicate task names in graph")
        for task in tasks:
            for dep in task.deps:
                if dep not in by_name:
                    raise PolicyError(
                        f"task {task.name!r} depends on unknown {dep!r}"
                    )
        try:
            order = list(TopologicalSorter(
                {task.name: task.deps for task in tasks}).static_order())
        except CycleError as error:
            cycle = " -> ".join(map(repr, error.args[1]))
            raise PolicyError(f"dependency cycle: {cycle}") from None
        successors: Dict[str, List[str]] = {name: [] for name in order}
        for task in tasks:
            for dep in task.deps:
                successors[dep].append(task.name)
        return by_name, successors

    def _priorities(self, by_name: Dict[str, DagTask],
                    successors: Dict[str, List[str]]) -> Dict[str, int]:
        """Critical-path length (this task's work + longest successor
        chain), the classic HLFET priority."""
        priorities: Dict[str, int] = {}
        for name in reversed(successors):
            task = by_name[name]
            own = (task.compute_ps
                   + self.reconfigure_ps(task.bitstream.size))
            downstream = max(
                (priorities[successor] for successor in successors[name]),
                default=0,
            )
            priorities[name] = own + downstream
        return priorities

    # -- scheduling ----------------------------------------------------------------

    def schedule(self, tasks: Sequence[DagTask]) -> DagScheduleReport:
        by_name, successors = self._build_graph(tasks)
        priorities = self._priorities(by_name, successors)
        report = DagScheduleReport()

        manager_free = 0      # staging/preload path
        icap_free = 0         # single reconfiguration port
        region_free: Dict[str, int] = {}
        region_module: Dict[str, Optional[str]] = {}
        finish: Dict[str, int] = {}

        ready = {task.name for task in tasks if not task.deps}
        completed = set()

        while ready:
            # Highest critical-path priority first; name breaks ties
            # deterministically.
            name = max(ready, key=lambda n: (priorities[n], n))
            ready.remove(name)
            task = by_name[name]
            deps_done = max((finish[dep] for dep in task.deps), default=0)

            if region_module.get(task.region) == task.module:
                # Module reuse: the region already holds this module.
                report.reuses += 1
                compute_start = max(deps_done,
                                    region_free.get(task.region, 0))
            else:
                preload_start = manager_free
                preload_end = preload_start \
                    + self.preload_ps(task.bitstream.size)
                manager_free = preload_end
                report.timeline.append(TimelineEntry(
                    name, "preload", preload_start, preload_end))

                reconfig_start = max(preload_end, icap_free,
                                     region_free.get(task.region, 0))
                reconfig_end = reconfig_start \
                    + self.reconfigure_ps(task.bitstream.size)
                icap_free = reconfig_end
                report.reconfigurations += 1
                report.timeline.append(TimelineEntry(
                    name, "reconfigure", reconfig_start, reconfig_end))
                region_module[task.region] = task.module
                compute_start = max(reconfig_end, deps_done)

            compute_end = compute_start + task.compute_ps
            region_free[task.region] = compute_end
            finish[name] = compute_end
            report.timeline.append(TimelineEntry(
                name, "compute", compute_start, compute_end))

            completed.add(name)
            for successor in successors[name]:
                if all(dep in completed
                       for dep in by_name[successor].deps):
                    ready.add(successor)

        if len(completed) != len(tasks):
            raise PolicyError("scheduler failed to place every task")
        return report

    def serial_baseline(self, tasks: Sequence[DagTask]) -> int:
        """Makespan with no parallelism and no reuse (worst case)."""
        total = 0
        for task in tasks:
            total += (self.preload_ps(task.bitstream.size)
                      + self.reconfigure_ps(task.bitstream.size)
                      + task.compute_ps)
        return total
