"""Admission control: bounded queues, deterministic shedding.

The admission controller owns the serve queues — one sorted list per
tenant, plus a per-module index over the same entries — and is the
only component that drops work.  Policy is
*insert-then-enforce*: an arriving request is always inserted in its
tenant's queue first, then the per-tenant bound and the global bound
are enforced by shedding the **worst** queued request (highest
:attr:`~repro.serve.spec.RequestSpec.sort_key`, i.e. lowest urgency).
A new urgent request therefore displaces queued background work
rather than being turned away by it.

Every decision is a pure function of queue contents, so shedding is
deterministic: ties cannot occur (``sort_key`` ends in the unique
request id) and global-bound victims are compared by
``(sort_key, tenant name)``.

Both structures are kept in ``sort_key`` order, so no queue is ever
scanned: a batch's riders are the head of the module's index, and a
dispatched or evicted entry is found by ``bisect`` on its unique
``sort_key``.

Backpressure is explicit: :attr:`AdmissionController.backpressure`
reports when total depth crosses the high-water mark (80% of the
global bound), and the service mirrors it into the
``serve.queue.backpressure`` gauge so an operator can see saturation
before sheds start.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.serve.spec import RequestSpec, ServeSpec

__all__ = ["AdmissionController", "SHED_INFEASIBLE", "SHED_QUEUE_FULL"]

#: Shed because a queue bound was exceeded.
SHED_QUEUE_FULL = "queue_full"
#: Shed because the deadline cannot be met even if dispatched now.
SHED_INFEASIBLE = "infeasible"

#: Queue entry: the sort key first, so ``insort`` keeps every queue
#: ordered by dispatch urgency.  The tenant name orders entries of
#: different tenants whose sort keys tie (only a hand-built stream
#: that reuses a request id has such ties) the way the global-bound
#: victim choice does.
_Entry = Tuple[Tuple[int, int, int, int], str, RequestSpec]


def _find(queue: List[_Entry], request: RequestSpec) -> int:
    """Index of ``request``'s entry in a sorted queue, or -1."""
    if queue and queue[0][2] is request:
        return 0  # the common case: dispatch takes heads
    key = request.sort_key
    for index in range(bisect_left(queue, (key,)), len(queue)):
        entry = queue[index]
        if entry[0] != key:
            break
        if entry[2] is request or entry[2] == request:
            return index
    return -1


class AdmissionController:
    """Bounded per-tenant queues with worst-first shedding."""

    def __init__(self, spec: ServeSpec) -> None:
        self._spec = spec
        self._queues: Dict[str, List[_Entry]] = {
            tenant.name: [] for tenant in spec.tenants}
        #: The same entries per module, merged across tenants.
        self._by_module: Dict[str, List[_Entry]] = {}
        #: Tenant names in deterministic iteration order.
        self.tenant_names: Tuple[str, ...] = tuple(sorted(self._queues))
        self._depth = 0

    # -- queue state ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Total queued requests across all tenants."""
        return self._depth

    def tenant_depth(self, tenant: str) -> int:
        return len(self._queues[tenant])

    @property
    def backpressure(self) -> bool:
        """True once depth crosses 80% of the global bound."""
        return self._depth * 5 >= self._spec.queue_limit * 4

    def head(self, tenant: str) -> Optional[RequestSpec]:
        """The tenant's most urgent queued request, if any."""
        queue = self._queues[tenant]
        return queue[0][2] if queue else None

    def queued(self, tenant: str) -> List[RequestSpec]:
        """The tenant's queue in dispatch order (copy)."""
        return [entry[2] for entry in self._queues[tenant]]

    # -- admission -----------------------------------------------------

    def offer(self, request: RequestSpec, now_ps: int,
              cold_service_ps: int,
              ) -> List[Tuple[RequestSpec, str]]:
        """Admit one request; return the resulting shed decisions.

        The shed victim of a bound violation is usually *not* the
        offered request — insert-then-enforce evicts the worst queued
        entry, which may be older background work.
        """
        if request.tenant not in self._queues:
            raise ServeError(f"request {request.request_id}: unknown "
                             f"tenant {request.tenant!r}")
        if self._spec.shed_infeasible \
                and now_ps + cold_service_ps > request.deadline_ps:
            return [(request, SHED_INFEASIBLE)]
        shed: List[Tuple[RequestSpec, str]] = []
        queue = self._queues[request.tenant]
        entry = (request.sort_key, request.tenant, request)
        insort(queue, entry)
        insort(self._by_module.setdefault(request.module, []), entry)
        self._depth += 1
        if len(queue) > self._spec.tenant_limit:
            shed.append((self._evict(request.tenant), SHED_QUEUE_FULL))
        if self._depth > self._spec.queue_limit:
            shed.append((self._evict_global(), SHED_QUEUE_FULL))
        return shed

    def _evict(self, tenant: str) -> RequestSpec:
        """Drop and return the tenant's worst queued request."""
        request = self._queues[tenant].pop()[2]
        index = self._by_module[request.module]
        del index[_find(index, request)]
        self._depth -= 1
        return request

    def _evict_global(self) -> RequestSpec:
        """Drop the globally worst request, ties broken by tenant."""
        victim_tenant = ""
        victim_key = None
        for tenant in self.tenant_names:
            queue = self._queues[tenant]
            if not queue:
                continue
            key = queue[-1][:2]
            if victim_key is None or key > victim_key:
                victim_key = key
                victim_tenant = tenant
        if victim_key is None:  # pragma: no cover - depth>0 guarantees
            raise ServeError("global eviction from empty queues")
        return self._evict(victim_tenant)

    # -- removal (dispatch and preemption requeue) ---------------------

    def take(self, request: RequestSpec) -> None:
        """Remove a specific queued request (it is being dispatched)."""
        queue = self._queues.get(request.tenant, [])
        position = _find(queue, request)
        if position < 0:
            raise ServeError(f"request {request.request_id} is not queued")
        del queue[position]
        index = self._by_module[request.module]
        del index[_find(index, request)]
        self._depth -= 1

    def match(self, module: str, limit: int,
              exclude_id: int) -> List[RequestSpec]:
        """Up to ``limit`` queued requests for ``module``, most urgent
        first.

        Reads the head of the module's index, which is already in
        dispatch order across tenants; used by the scheduler to
        coalesce a batch.  ``exclude_id`` skips the request that
        seeded the batch.
        """
        found: List[RequestSpec] = []
        if limit <= 0:
            return found
        for entry in self._by_module.get(module, ()):
            if entry[2].request_id != exclude_id:
                found.append(entry[2])
                if len(found) == limit:
                    break
        return found
