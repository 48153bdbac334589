"""Per-tenant fair scheduling: weighted DRR, EDF override, batching.

The scheduler decides *what to reconfigure next* given the admission
queues and the free boards.  Three policies compose:

* **Deadline override** — if any priority-0 request is queued, the one
  with the earliest deadline dispatches next, regardless of fairness
  state.  Urgency classes above 0 never bypass fairness.
* **Weighted deficit round-robin** — otherwise tenants are visited in
  a fixed ring (sorted names); a visited tenant earns its quantum
  (base quantum x its weight) and dispatches its head request once its
  deficit covers the request's estimated cold service time.  Service
  actually consumed is charged back (batch-shared), so tenants pay
  for what they use, not for what was estimated.
* **Batching** — the selected request's module defines a batch: up to
  ``batch_limit - 1`` further queued requests for the same module
  (any tenant, most urgent first) ride along and are satisfied by the
  single reconfiguration.

Board choice is affinity-first: a free board that already holds the
module serves the batch warm; otherwise the lowest-numbered free
board takes a cold load.  Every decision iterates sorted structures,
so scheduling is a deterministic function of (queues, deficits, ring
position, free boards).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.fpga.fleet import FleetBoard
from repro.serve.admission import AdmissionController
from repro.serve.fleet import ServiceTimeTable
from repro.serve.spec import RequestSpec, ServeSpec

__all__ = ["Batch", "FairScheduler"]


@dataclass(frozen=True)
class Batch:
    """One dispatch decision: a module load serving several requests."""

    module: str
    requests: Tuple[RequestSpec, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ServeError("a batch needs at least one request")


class FairScheduler:
    """Weighted-DRR selector over the admission queues."""

    def __init__(self, spec: ServeSpec,
                 table: ServiceTimeTable) -> None:
        self._spec = spec
        self._table = table
        self._ring: Tuple[str, ...] = tuple(
            sorted(tenant.name for tenant in spec.tenants))
        self._quantum: Dict[str, int] = {
            tenant.name: max(1, round(table.quantum_ps * tenant.weight))
            for tenant in spec.tenants}
        self._deficit: Dict[str, int] = {
            name: 0 for name in self._ring}
        self._position = 0
        self._turn_credited = False

    # -- selection -----------------------------------------------------

    def deficit(self, tenant: str) -> int:
        return self._deficit[tenant]

    def urgent_head(self, admission: AdmissionController,
                    ) -> Optional[RequestSpec]:
        """The earliest-deadline queued priority-0 request, if any."""
        best: Optional[RequestSpec] = None
        for tenant in admission.tenant_names:
            head = admission.head(tenant)
            if head is None or head.priority != 0:
                continue
            if best is None or (head.deadline_ps, head.request_id) \
                    < (best.deadline_ps, best.request_id):
                best = head
        return best

    def _advance(self) -> None:
        self._position = (self._position + 1) % len(self._ring)
        self._turn_credited = False

    def _drr_head(self, admission: AdmissionController,
                  ) -> Optional[RequestSpec]:
        """The next head request weighted round-robin can afford.

        Classic DRR turns: the tenant at the ring position earns its
        quantum once when its turn starts, then keeps dispatching
        while its deficit covers its head request; when it cannot
        afford the next one (or runs dry) the turn passes on, deficit
        carried.  An expensive head may need several turns of credit;
        an idle tenant's deficit resets, so idleness banks no credit.
        """
        if not admission.depth:
            return None
        # A full cycle credits every backlogged tenant one quantum, so
        # some head becomes affordable within max_cost / min_quantum
        # cycles; the bound is a backstop against a broken cost model.
        for _ in range(len(self._ring) * 64):
            name = self._ring[self._position]
            head = admission.head(name)
            if head is None:
                self._deficit[name] = 0
                self._advance()
                continue
            if not self._turn_credited:
                self._deficit[name] += self._quantum[name]
                self._turn_credited = True
            cost = self._table.service_ps(head.module, warm=False)
            if self._deficit[name] >= cost:
                return head
            self._advance()
        raise ServeError("deficit round-robin failed to converge; "
                         "quantum is implausibly small")

    def next_batch(self, admission: AdmissionController,
                   ) -> Optional[Batch]:
        """Select and dequeue the next batch, or ``None`` if idle."""
        head = self.urgent_head(admission) or self._drr_head(admission)
        if head is None:
            return None
        admission.take(head)
        riders = admission.match(head.module,
                                 limit=self._spec.batch_limit - 1,
                                 exclude_id=head.request_id)
        for rider in riders:
            admission.take(rider)
        return Batch(module=head.module,
                     requests=(head, *riders))

    def charge(self, batch: Batch, duration_ps: int) -> None:
        """Charge the batch's actual service time to its tenants.

        The load is split evenly: each request's tenant pays
        ``duration // batch size``.  Deadline overrides may drive a
        deficit negative — that tenant then waits out its debt in
        subsequent DRR rounds, which is exactly the fairness
        correction wanted.
        """
        share = duration_ps // len(batch.requests)
        for request in batch.requests:
            self._deficit[request.tenant] -= share

    # -- board choice --------------------------------------------------

    @staticmethod
    def pick_board(free: List[FleetBoard],
                   module: str) -> Tuple[FleetBoard, bool]:
        """Affinity-first board choice: ``(board, warm)``.

        ``free`` may arrive in any order; both picks minimise over
        ``board_id``, so the choice is order-independent.
        """
        if not free:
            raise ServeError("no free board to pick from")
        warm = [board for board in free if board.loaded_module == module]
        if warm:
            return min(warm, key=lambda board: board.board_id), True
        return min(free, key=lambda board: board.board_id), False
