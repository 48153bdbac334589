"""The fleet service: an event-driven pump over the sim kernel.

One :class:`FleetService` drives a board fleet against a pre-generated
request stream on a single :class:`~repro.sim.kernel.Simulator`.  The
design goal is *order-independence under same-instant perturbation*
(the S903 determinism contract) while still putting real concurrency
on the kernel — several boards can complete at one instant, and a
completion can share an instant with a pass — so the race sanitizers
have something to check.

The structure that achieves it:

* All shared scheduler state (queues, deficits, board bookkeeping) is
  owned by **pass** events.  At most one pass runs per instant (a set
  of scheduled pass times dedupes requests), so passes never race.
* Arrivals are not events.  :meth:`FleetService.run` sorts the stream
  by arrival (stably) and schedules one pass at ``arrival + 1`` for
  every distinct arrival time, in one batch; each pass reads the
  requests that arrived **strictly before** it from a cursor into
  that sorted stream.
* Completion callbacks are pure mailbox appends: they record
  themselves and request a pass at ``now + 1``.  They touch no queue,
  no board, no counter.
* A pass at instant ``T`` consumes only mailbox items stamped
  **strictly before** ``T``.  Same-instant completions can only append
  items stamped ``T``, so the set a pass processes — and everything
  downstream of it — is independent of the order the kernel fired
  those callbacks in.  Items stamped ``T`` wait for the pass at
  ``T + 1`` that their own callback requested.
* The completion mailbox is drained in sorted ``(finish, board)``
  order, never in append order.
* Preemption never cancels events: the board's ``service_generation``
  is bumped, and the stale completion is discarded when drained.

Pass times are exactly those an arrival event per request would
request (``arrival + 1`` and ``finish + 1``), so reading arrivals from
the stream changes no dispatch decision and no report byte; it only
removes one kernel event per request.

Pass processing order is fixed — completions, admissions, preemption,
dispatch — so freed boards are visible to the dispatcher within the
same pass.  A stage with nothing to do is skipped: the drain with an
empty mailbox, admission with no arrival due, preemption while a
board is free, and dispatch with empty queues or no free board.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.obs import current_registry
from repro.obs.tracing import TraceScope
from repro.serve.admission import AdmissionController
from repro.serve.fleet import ServiceTimeTable, build_fleet
from repro.serve.scheduler import Batch, FairScheduler
from repro.serve.spec import RequestSpec, ServeSpec
from repro.sim.kernel import Simulator

__all__ = ["CompletionRecord", "FleetService", "ServeOutcome",
           "ShedRecord"]

#: Latency histogram bucket bounds, in microseconds.
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0,
    12800.0,
)


@dataclass(frozen=True)
class CompletionRecord:
    """One request served: where, when, and how."""

    request: RequestSpec
    finish_ps: int
    board_id: int
    warm: bool
    batch_size: int

    @property
    def latency_ps(self) -> int:
        return self.finish_ps - self.request.arrival_ps

    @property
    def missed(self) -> bool:
        return self.finish_ps > self.request.deadline_ps


@dataclass(frozen=True)
class ShedRecord:
    """One request dropped, with the admission decision behind it."""

    request: RequestSpec
    reason: str
    time_ps: int


@dataclass(frozen=True)
class ServeOutcome:
    """Everything a serve run produced, in deterministic order."""

    spec: ServeSpec
    requests: Tuple[RequestSpec, ...]
    completions: Tuple[CompletionRecord, ...]
    sheds: Tuple[ShedRecord, ...]
    end_ps: int
    preemptions: int
    stale_completions: int


@dataclass
class _Service:
    """One in-flight reconfiguration on one board."""

    generation: int
    batch: Batch
    finish_ps: int
    warm: bool
    started_ps: int

    @property
    def priority(self) -> int:
        """The batch's urgency: its most urgent rider."""
        return min(request.priority for request in self.batch.requests)


class FleetService:
    """Run one :class:`ServeSpec` scenario to completion."""

    def __init__(self, spec: ServeSpec,
                 table: Optional[ServiceTimeTable] = None,
                 sim: Optional[Simulator] = None,
                 scope: Optional[TraceScope] = None) -> None:
        self._spec = spec
        self._table = table if table is not None else ServiceTimeTable(spec)
        self._sim = sim if sim is not None else Simulator()
        self._fleet = build_fleet(spec)
        self._admission = AdmissionController(spec)
        self._scheduler = FairScheduler(spec, self._table)
        self._metrics = current_registry()
        self._scope = scope
        self._tracks = {}
        if scope is not None:
            self._tracks = {board.board_id:
                            scope.track(board.name, cat="serve")
                            for board in self._fleet}
        # The arrival stream, sorted by arrival, and the pass cursor
        # into it: requests before the cursor have been admitted.
        self._stream: List[RequestSpec] = []
        self._arrivals: List[int] = []
        self._cursor = 0
        # Completion mailbox (append-only from callbacks, drained by
        # passes).
        self._done_inbox: List[Tuple[int, int, int]] = []
        self._scheduled_passes: Set[int] = set()
        # Instruments every pass touches.  All others bind on first
        # use, so a snapshot names no metric a run left at zero.
        self._passes = self._metrics.counter("serve.passes")
        self._depth_gauge = self._metrics.gauge("serve.queue.depth")
        self._backpressure_gauge = self._metrics.gauge(
            "serve.queue.backpressure")
        # Pass-owned state.
        self._busy: Dict[int, _Service] = {}
        self._completions: List[CompletionRecord] = []
        self._sheds: List[ShedRecord] = []
        self._preemptions = 0
        self._stale = 0

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def table(self) -> ServiceTimeTable:
        return self._table

    # -- top level -----------------------------------------------------

    def run(self, requests: List[RequestSpec]) -> ServeOutcome:
        """Serve the whole stream; returns when the fleet drains."""
        self._stream = sorted(requests, key=attrgetter("arrival_ps"))
        self._arrivals = [request.arrival_ps for request in self._stream]
        self._cursor = 0
        pass_times = sorted({arrival + 1 for arrival in self._arrivals})
        self._scheduled_passes.update(pass_times)
        run_pass = self._pass
        self._sim.schedule_batch([(time_ps, run_pass)
                                  for time_ps in pass_times])
        end_ps = self._sim.run()
        self._completions.sort(
            key=attrgetter("finish_ps", "request.request_id"))
        self._sheds.sort(key=attrgetter("time_ps", "request.request_id"))
        return ServeOutcome(
            spec=self._spec,
            requests=tuple(requests),
            completions=tuple(self._completions),
            sheds=tuple(self._sheds),
            end_ps=end_ps,
            preemptions=self._preemptions,
            stale_completions=self._stale,
        )

    # -- callbacks (mailbox appends only) ------------------------------

    def _finish(self, finish_ps: int, board_id: int,
                generation: int) -> None:
        self._done_inbox.append((finish_ps, board_id, generation))
        self._request_pass(finish_ps + 1)

    def _request_pass(self, time_ps: int) -> None:
        if time_ps not in self._scheduled_passes:
            self._scheduled_passes.add(time_ps)
            self._sim.call_at(time_ps, self._pass)

    def _schedule_completion(self, finish_ps: int, board_id: int,
                             generation: int) -> None:
        self._sim.call_at(finish_ps, partial(self._finish, finish_ps,
                                             board_id, generation))

    # -- the pass ------------------------------------------------------

    def _pass(self) -> None:
        now = self._sim.now
        self._scheduled_passes.discard(now)
        self._passes.inc()
        if self._done_inbox:
            self._drain_completions(now)
        if self._cursor < len(self._arrivals) \
                and self._arrivals[self._cursor] < now:
            self._admit_due(now)
        admission = self._admission
        if admission.depth:
            boards = len(self._fleet)
            if self._spec.preempt and len(self._busy) >= boards:
                self._preempt_urgent(now)
            if len(self._busy) < boards:
                self._dispatch(now)
        if self._metrics.enabled:
            self._depth_gauge.high_water(admission.depth)
            self._backpressure_gauge.set(
                1 if admission.backpressure else 0)

    def _drain_completions(self, now: int) -> None:
        inbox = self._done_inbox
        ready = [entry for entry in inbox if entry[0] < now]
        if not ready:
            return
        self._done_inbox = ([entry for entry in inbox if entry[0] >= now]
                            if len(ready) < len(inbox) else [])
        metrics = self._metrics
        latency = metrics.histogram("serve.latency_us",
                                    bounds=LATENCY_BUCKETS_US)
        completions = self._completions
        completed = missed = stale = 0
        for finish_ps, board_id, generation in sorted(ready):
            board = self._fleet[board_id]
            service = self._busy.get(board_id)
            if service is None or service.generation != generation \
                    or board.service_generation != generation:
                stale += 1
                continue
            del self._busy[board_id]
            track = self._tracks.get(board_id)
            if track is not None:
                track.exit()
            requests = service.batch.requests
            size = len(requests)
            completed += size
            for request in requests:
                completions.append(CompletionRecord(
                    request=request, finish_ps=finish_ps,
                    board_id=board_id, warm=service.warm,
                    batch_size=size))
                if finish_ps > request.deadline_ps:
                    missed += 1
            if metrics.enabled:
                for request in requests:
                    latency.observe(
                        (finish_ps - request.arrival_ps) / 1e6)
        if stale:
            self._stale += stale
            metrics.counter("serve.completions.stale").inc(stale)
        if completed:
            metrics.counter("serve.requests.completed").inc(completed)
        if missed:
            metrics.counter("serve.deadline.missed").inc(missed)

    def _admit_due(self, now: int) -> None:
        """Offer every request that arrived strictly before ``now``."""
        start = self._cursor
        end = bisect_left(self._arrivals, now, start)
        self._cursor = end
        self._metrics.counter("serve.requests.offered").inc(end - start)
        for request in self._stream[start:end]:
            self._offer(request, now)

    def _offer(self, request: RequestSpec, now: int) -> None:
        cold = self._table.service_ps(request.module, warm=False)
        for victim, reason in self._admission.offer(request, now, cold):
            self._sheds.append(ShedRecord(victim, reason, now))
            self._metrics.counter("serve.requests.shed").inc()
            self._metrics.counter(f"serve.requests.shed.{reason}").inc()

    def _preempt_urgent(self, now: int) -> None:
        """Preempt a background board for a deadline-critical request.

        Only when every board is busy, only for priority-0 work that
        would miss by waiting but can still make it now, and only at
        the expense of a batch with no priority-0 riders.
        """
        while len(self._busy) >= len(self._fleet):
            urgent = self._scheduler.urgent_head(self._admission)
            if urgent is None:
                return
            cold = self._table.service_ps(urgent.module, warm=False)
            if now + cold > urgent.deadline_ps:
                return  # already infeasible; preempting gains nothing
            earliest = min(service.finish_ps
                           for service in self._busy.values())
            if earliest + 1 + cold <= urgent.deadline_ps:
                return  # waiting for a natural completion still works
            victim_id = self._preemption_victim()
            if victim_id is None:
                return
            self._preempt(victim_id, now)

    def _preemption_victim(self) -> Optional[int]:
        """The busy board running the least urgent preemptable batch."""
        best: Optional[Tuple[int, int, int]] = None
        for board_id in sorted(self._busy):
            service = self._busy[board_id]
            if service.priority == 0:
                continue  # never preempt urgent work
            key = (service.priority, service.finish_ps, board_id)
            if best is None or key > best:
                best = key
        return best[2] if best is not None else None

    def _preempt(self, board_id: int, now: int) -> None:
        service = self._busy.pop(board_id)
        board = self._fleet[board_id]
        board.invalidate()  # stale-ify the in-flight completion
        self._preemptions += 1
        self._metrics.counter("serve.preemptions").inc()
        track = self._tracks.get(board_id)
        if track is not None:
            track.exit()
        # The interrupted requests rejoin the queues as fresh offers
        # (they keep their original arrival, so their latency keeps
        # accruing); bounds may shed them.
        for request in service.batch.requests:
            self._offer(request, now)

    def _dispatch(self, now: int) -> None:
        busy = self._busy
        admission = self._admission
        metrics = self._metrics
        while len(busy) < len(self._fleet) and admission.depth:
            batch = self._scheduler.next_batch(admission)
            if batch is None:
                return
            free = [board for board in self._fleet
                    if board.board_id not in busy]
            board, warm = FairScheduler.pick_board(free, batch.module)
            duration = self._table.service_ps(batch.module, warm)
            self._scheduler.charge(batch, duration)
            generation = board.service_generation
            board.loaded_module = batch.module
            if not warm:
                board.reconfigurations += 1
            finish = now + duration
            busy[board.board_id] = _Service(
                generation=generation, batch=batch, finish_ps=finish,
                warm=warm, started_ps=now)
            if metrics.enabled:
                metrics.counter("serve.dispatch.batches").inc()
                metrics.counter("serve.dispatch.warm" if warm
                                else "serve.dispatch.cold").inc()
                metrics.counter(
                    f"serve.board.{board.board_id}.dispatches").inc()
                metrics.gauge("serve.inflight").high_water(len(busy))
            track = self._tracks.get(board.board_id)
            if track is not None:
                track.enter(batch.module, warm=warm,
                            requests=len(batch.requests))
            self._schedule_completion(finish, board.board_id,
                                      generation)
