"""Hypothesis properties of the admission controller's queue index.

Random sequences of offers, takes and matches under small bounds (so
per-tenant and global evictions fire often) are replayed against the
controller and against a plain list model that scans and sorts, as the
controller did before it kept a per-module index.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ServeError
from repro.serve import ServeSpec
from repro.serve.admission import SHED_QUEUE_FULL, AdmissionController
from repro.serve.spec import RequestSpec, TenantSpec

MODULES = ("aes_core", "fir_filter", "viterbi")
TENANTS = (
    TenantSpec("a", 1.0, modules=MODULES, priority=0),
    TenantSpec("b", 1.0, modules=MODULES, priority=1),
    TenantSpec("c", 1.0, modules=MODULES, priority=1),
)


class ListModel:
    """The queues as one unsorted list; every query scans and sorts."""

    def __init__(self, tenant_limit, queue_limit):
        self.queued = []
        self.tenant_limit = tenant_limit
        self.queue_limit = queue_limit

    def tenant_queue(self, tenant):
        return sorted((r for r in self.queued if r.tenant == tenant),
                      key=lambda r: r.sort_key)

    def offer(self, request):
        self.queued.append(request)
        shed = []
        tenant_queue = self.tenant_queue(request.tenant)
        if len(tenant_queue) > self.tenant_limit:
            shed.append(self._drop(tenant_queue[-1]))
        if len(self.queued) > self.queue_limit:
            worst = max(self.queued, key=lambda r: (r.sort_key, r.tenant))
            shed.append(self._drop(worst))
        return shed

    def _drop(self, request):
        self.queued.remove(request)
        return (request, SHED_QUEUE_FULL)

    def match(self, module, limit, exclude_id):
        found = [r for tenant in sorted({t.name for t in TENANTS})
                 for r in self.tenant_queue(tenant)
                 if r.module == module and r.request_id != exclude_id]
        found.sort(key=lambda r: r.sort_key)
        return found[:limit]


def make_request(request_id, tenant, module, deadline):
    priority = {t.name: t.priority for t in TENANTS}[tenant]
    return RequestSpec(request_id=request_id, tenant=tenant,
                       module=module, arrival_ps=0,
                       deadline_ps=deadline, priority=priority)


OPERATIONS = st.lists(
    st.one_of(
        # Few distinct deadlines, so sort keys tie up to request_id.
        st.tuples(st.just("offer"), st.sampled_from("abc"),
                  st.sampled_from(MODULES), st.integers(1, 4)),
        st.tuples(st.just("take"), st.integers(0, 40)),
        st.tuples(st.just("match"), st.sampled_from(MODULES),
                  st.integers(0, 4), st.integers(-1, 40)),
    ),
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(operations=OPERATIONS, tenant_limit=st.integers(1, 4),
       queue_limit=st.integers(1, 6))
def test_index_agrees_with_scan_and_sort(operations, tenant_limit,
                                         queue_limit):
    admission = AdmissionController(ServeSpec(
        tenants=TENANTS, tenant_limit=tenant_limit,
        queue_limit=queue_limit))
    model = ListModel(tenant_limit, queue_limit)
    made = []  # every request ever created, by request_id
    for operation in operations:
        if operation[0] == "offer":
            _, tenant, module, deadline = operation
            request = make_request(len(made), tenant, module, deadline)
            made.append(request)
            assert admission.offer(request, 0, 1) == model.offer(request)
        elif operation[0] == "take":
            if operation[1] >= len(made):
                continue
            request = made[operation[1]]
            if request in model.queued:
                admission.take(request)
                model.queued.remove(request)
            else:
                # Never queued, evicted, or already taken.
                with pytest.raises(ServeError):
                    admission.take(request)
        else:
            _, module, limit, exclude_id = operation
            assert admission.match(module, limit, exclude_id) \
                == model.match(module, limit, exclude_id)
        assert admission.depth == len(model.queued)
        for tenant in admission.tenant_names:
            assert admission.queued(tenant) == model.tenant_queue(tenant)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from(MODULES)),
                min_size=1, max_size=12))
def test_take_never_queued_raises(offers):
    admission = AdmissionController(ServeSpec(
        tenants=TENANTS, tenant_limit=16, queue_limit=64))
    for index, (tenant, module) in enumerate(offers):
        admission.offer(make_request(index, tenant, module, 1), 0, 1)
    stranger = make_request(len(offers), "a", MODULES[0], 1)
    with pytest.raises(ServeError):
        admission.take(stranger)
    # Same sort key as a queued request, different module: not queued.
    tenant, module = offers[0]
    twin = make_request(0, tenant,
                        next(m for m in MODULES if m != module), 1)
    with pytest.raises(ServeError):
        admission.take(twin)
    assert admission.depth == len(offers)
