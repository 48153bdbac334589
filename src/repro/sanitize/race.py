"""Dynamic race sanitizer: unordered same-instant accesses.

TSan for the event kernel.  While active, attribute writes (and
optionally reads) on tracked objects are recorded against the
happens-before task that performed them (:mod:`repro.sanitize.hb`);
at the end of every simulation instant, each attribute's access list
is checked pairwise and every conflicting pair whose tasks the kernel
does *not* order becomes a finding:

* **S901** — unordered write/write: two same-instant callbacks both
  store to the attribute and could legally run in either order, so
  the surviving value depends on the scheduler tie-break.
* **S902** — unordered read/write: one callback's read may see the
  value before or after another's write depending on tie-break order.

Objects are tracked two ways:

* :meth:`RaceSanitizer.watch` — opt-in, any object.
* auto-instrumentation (default) — every class defined in a
  ``repro.controllers`` / ``repro.fpga`` / ``repro.core`` module is
  interposed, so the paper's controller/FPGA state is covered without
  touching model code.

Interposition patches ``__setattr__`` (and ``__getattribute__`` for
reads) *on the class*; accesses made while no sanitizer task is
current (construction, test setup) are skipped in two attribute loads,
and everything is restored when the sanitizer closes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import current_registry
from repro.sanitize.hb import (
    HBTracker,
    Site,
    Task,
    TrackerListener,
    caller_site,
    happens_before,
)
from repro.sim import kernel as _kernel

#: Classes defined in modules with these prefixes are auto-instrumented.
AUTO_INSTRUMENT_PREFIXES = ("repro.controllers", "repro.fpga",
                            "repro.core")

WRITE_WRITE_RACE = "S901"
READ_WRITE_RACE = "S902"
ORDER_DIVERGENCE = "S903"  # reported by determinism.py, shares the table

RULE_TITLES = {
    WRITE_WRITE_RACE: "dynamic-write-write-race",
    READ_WRITE_RACE: "dynamic-read-write-race",
    ORDER_DIVERGENCE: "dynamic-order-divergence",
}

#: Per (object, attr) instant cap — beyond this the list stops growing
#: (pair analysis is quadratic; a same-instant storm hammering one
#: attribute from this many distinct points is already reported).
_MAX_ACCESSES_PER_KEY = 128


class Access:
    """One attribute access by one sanitizer task."""

    __slots__ = ("task", "kind", "site")

    def __init__(self, task: Task, kind: str, site: Site) -> None:
        self.task = task
        self.kind = kind  # "read" | "write"
        self.site = site


@dataclass
class AccessContext:
    """Reportable context of one side of a racy pair."""

    kind: str
    task_label: str
    access_site: Site
    sched_site: Site

    def describe(self) -> str:
        access = f"{self.access_site[0]}:{self.access_site[1]}"
        sched = f"{self.sched_site[0]}:{self.sched_site[1]}"
        return (f"{self.kind} at {access} in task {self.task_label!r} "
                f"(scheduled at {sched})")


@dataclass
class SanitizerFinding:
    """One dynamic finding (race or order divergence), deduplicated."""

    rule_id: str
    object_type: str
    attr: str
    time_ps: int
    first: AccessContext
    second: AccessContext
    count: int = 1
    justified: bool = False
    #: The schedule/spawn sites of both tasks (origin, then own site,
    #: per task); SARIF export anchors the finding at the first one.
    schedule_sites: Tuple[Site, ...] = field(default=())

    @property
    def key(self) -> Tuple[Any, ...]:
        return (self.rule_id, self.object_type, self.attr,
                self.first.kind, self.first.access_site,
                self.second.kind, self.second.access_site)

    def describe(self) -> str:
        return (f"{self.rule_id} {RULE_TITLES[self.rule_id]}: "
                f"{self.object_type}.{self.attr} at t={self.time_ps} ps "
                f"(x{self.count}) — {self.first.describe()} vs "
                f"{self.second.describe()}")


class _Bridge(TrackerListener):
    """Routes one tracker's task stream into the shared sanitizer."""

    def __init__(self, sanitizer: "RaceSanitizer",
                 tracker: HBTracker) -> None:
        self.sanitizer = sanitizer
        self.tracker = tracker
        #: (id(obj), attr) -> [object type name, [Access, ...]]
        self.accesses: Dict[Tuple[int, str], List[Any]] = {}

    def on_task_begin(self, task: Task) -> None:
        self.sanitizer._task_stack.append(task)
        self.sanitizer._bridge_stack.append(self)

    def on_task_end(self, task: Task) -> None:
        self.sanitizer._task_stack.pop()
        self.sanitizer._bridge_stack.pop()

    def on_instant_end(self, time_ps: int) -> None:
        self.sanitizer._flush(self, time_ps)


class RaceSanitizer:
    """Detects unordered same-instant accesses on tracked objects.

    Usage (usually via :func:`repro.sanitize.sanitized`)::

        sanitizer = RaceSanitizer()
        sanitizer.open()
        try:
            ...  # build systems, run simulations
        finally:
            sanitizer.close()
        for finding in sanitizer.findings:
            print(finding.describe())
    """

    def __init__(self, auto_instrument: bool = True,
                 track_reads: bool = True,
                 justified: Tuple[str, ...] = ()) -> None:
        self.auto_instrument = auto_instrument
        self.track_reads = track_reads
        self.justified = tuple(justified)
        self.findings: List[SanitizerFinding] = []
        self.trackers: List[HBTracker] = []
        self.accesses_recorded = 0
        self._task_stack: List[Task] = []
        self._bridge_stack: List[_Bridge] = []
        self._findings_by_key: Dict[Tuple[Any, ...],
                                    SanitizerFinding] = {}
        self._auto_classes: set = set()
        self._watched_ids: set = set()
        self._watch_refs: List[Any] = []  # keep ids stable
        #: cls -> (had own __setattr__, original, had own
        #: __getattribute__, original)
        self._patched: Dict[type, Tuple[bool, Any, bool, Any]] = {}
        self._previous_hook: Any = None
        self._registry = current_registry()
        self._open = False

    # -- lifecycle ----------------------------------------------------

    def open(self) -> None:
        """Install the construction hook and auto-instrumentation."""
        if self._open:
            raise RuntimeError("RaceSanitizer already open")
        self._open = True
        self._registry = current_registry()
        self._previous_hook = _kernel.set_construction_hook(self._on_sim)
        if self.auto_instrument:
            self._instrument_auto_modules()

    def close(self) -> None:
        """Flush pending instants, restore hook and patched classes."""
        if not self._open:
            return
        self._open = False
        for tracker in self.trackers:
            tracker.finish()
        _kernel.set_construction_hook(self._previous_hook)
        self._previous_hook = None
        for cls in list(self._patched):
            self._uninstrument(cls)
        registry = self._registry
        registry.counter("sanitize.tasks").inc(
            sum(tracker.tasks_run for tracker in self.trackers))
        registry.counter("sanitize.accesses").inc(self.accesses_recorded)
        registry.counter("sanitize.races").inc(
            sum(1 for finding in self.findings if not finding.justified))

    def _on_sim(self, sim: Any) -> None:
        if self._previous_hook is not None:
            self._previous_hook(sim)
        self.attach(sim)

    def attach(self, sim: Any) -> None:
        """Track a simulator (hooked automatically for new ones)."""
        tracker = HBTracker(sim, label=f"sim{len(self.trackers)}")
        tracker.listeners.append(_Bridge(self, tracker))
        sim.sanitizer = tracker
        self.trackers.append(tracker)
        if self.auto_instrument:
            # Model classes import lazily; re-scan whenever a new
            # simulator appears so late imports still get covered.
            self._instrument_auto_modules()

    # -- instrumentation ----------------------------------------------

    def watch(self, obj: Any) -> Any:
        """Opt a single object into race tracking; returns ``obj``."""
        self._watched_ids.add(id(obj))
        self._watch_refs.append(obj)
        self._instrument(type(obj))
        return obj

    def _instrument_auto_modules(self) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None \
                    or not module_name.startswith(AUTO_INSTRUMENT_PREFIXES):
                continue
            for value in list(vars(module).values()):
                if (isinstance(value, type)
                        and value.__module__ == module_name
                        and not issubclass(value, BaseException)):
                    self._auto_classes.add(value)
                    self._instrument(value)

    def _instrument(self, cls: type) -> None:
        if cls in self._patched:
            return
        if getattr(cls.__setattr__, "_repro_sanitize_wrapper", False):
            return  # already patched by a nested sanitizer
        had_setattr = "__setattr__" in vars(cls)
        original_setattr = cls.__setattr__
        had_getattribute = "__getattribute__" in vars(cls)
        original_getattribute = cls.__getattribute__
        sanitizer = self

        def sanitized_setattr(obj: Any, name: str, value: Any,
                              _original: Any = original_setattr) -> None:
            if sanitizer._task_stack:
                sanitizer._note(obj, name, "write")
            _original(obj, name, value)

        sanitized_setattr._repro_sanitize_wrapper = True
        try:
            cls.__setattr__ = sanitized_setattr  # type: ignore[assignment]
        except TypeError:
            return  # extension/builtin class; cannot interpose
        if self.track_reads:

            def sanitized_getattribute(
                    obj: Any, name: str,
                    _original: Any = original_getattribute) -> Any:
                value = _original(obj, name)
                if (sanitizer._task_stack and name[:2] != "__"
                        and not callable(value)):
                    sanitizer._note(obj, name, "read")
                return value

            sanitized_getattribute._repro_sanitize_wrapper = True
            cls.__getattribute__ = (  # type: ignore[assignment]
                sanitized_getattribute)
        self._patched[cls] = (had_setattr, original_setattr,
                              had_getattribute, original_getattribute)

    def _uninstrument(self, cls: type) -> None:
        entry = self._patched.pop(cls, None)
        if entry is None:
            return
        had_setattr, original_setattr, had_getattribute, \
            original_getattribute = entry
        if had_setattr:
            cls.__setattr__ = original_setattr  # type: ignore[assignment]
        else:
            delattr(cls, "__setattr__")
        if self.track_reads:
            if had_getattribute:
                cls.__getattribute__ = (  # type: ignore[assignment]
                    original_getattribute)
            else:
                delattr(cls, "__getattribute__")

    # -- access recording ---------------------------------------------

    def _note(self, obj: Any, attr: str, kind: str) -> None:
        cls = type(obj)
        if cls not in self._auto_classes \
                and id(obj) not in self._watched_ids:
            return
        task = self._task_stack[-1]
        bridge = self._bridge_stack[-1]
        key = (id(obj), attr)
        entry = bridge.accesses.get(key)
        if entry is None:
            entry = [cls.__name__, []]
            bridge.accesses[key] = entry
        accesses = entry[1]
        if accesses:
            last = accesses[-1]
            # Collapse a task's repeated same-kind accesses (loops):
            # only the first one can pair differently.
            if last.task is task and last.kind == kind:
                return
        if len(accesses) >= _MAX_ACCESSES_PER_KEY:
            return
        accesses.append(Access(task, kind, caller_site()))
        self.accesses_recorded += 1

    # -- analysis -----------------------------------------------------

    def _flush(self, bridge: _Bridge, time_ps: int) -> None:
        for (_obj_id, attr), entry in bridge.accesses.items():
            type_name, accesses = entry
            if len(accesses) < 2:
                continue
            for i, first in enumerate(accesses):
                for second in accesses[i + 1:]:
                    if first.task is second.task:
                        continue
                    if first.kind == "read" and second.kind == "read":
                        continue
                    if happens_before(first.task, second.task) \
                            or happens_before(second.task, first.task):
                        continue
                    self._record(type_name, attr, time_ps,
                                 first, second)
        bridge.accesses.clear()

    def _record(self, type_name: str, attr: str, time_ps: int,
                first: Access, second: Access) -> None:
        if first.kind == "write" and second.kind == "write":
            rule_id = WRITE_WRITE_RACE
        else:
            rule_id = READ_WRITE_RACE
        finding = SanitizerFinding(
            rule_id=rule_id,
            object_type=type_name,
            attr=attr,
            time_ps=time_ps,
            first=_context(first),
            second=_context(second),
            schedule_sites=(first.task.origin_site, first.task.site,
                            second.task.origin_site, second.task.site),
        )
        existing = self._findings_by_key.get(finding.key)
        if existing is not None:
            existing.count += 1
            return
        finding.justified = self._is_justified(finding)
        self._findings_by_key[finding.key] = finding
        self.findings.append(finding)

    def _is_justified(self, finding: SanitizerFinding) -> bool:
        target = f"{finding.object_type}.{finding.attr}"
        qualified = f"{finding.rule_id}:{target}"
        return target in self.justified or qualified in self.justified


def _context(access: Access) -> AccessContext:
    return AccessContext(kind=access.kind,
                         task_label=access.task.label,
                         access_site=access.site,
                         sched_site=access.task.origin_site)
