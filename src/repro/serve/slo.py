"""SLO reporting: latency percentiles, goodput, miss and shed rates.

A report is a pure function of a :class:`ServeOutcome` — every number
derives from integer picosecond timestamps and counts, percentiles
are nearest-rank over sorted integer latencies, and the JSON
rendering sorts its keys — so equal runs serialise byte-identically
and the report's SHA-256 digest pins a whole serve run the way a
sweep record key pins one cell.  The digest-pinned replay tests and
the S903 determinism scenario both compare exactly these bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.serve.service import ServeOutcome
from repro.serve.spec import request_stream_digest

__all__ = ["SLOReport", "build_report", "percentile"]

PS_PER_S = 1_000_000_000_000

#: The percentiles every report carries.
PERCENTILES: Tuple[int, ...] = (50, 95, 99)


def percentile(sorted_values: List[int], percent: int) -> int:
    """Nearest-rank percentile of an ascending integer list."""
    if not sorted_values:
        return 0
    if not 0 < percent <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percent}")
    rank = -(-percent * len(sorted_values) // 100)  # ceil division
    return sorted_values[rank - 1]


def _us(value_ps: int) -> float:
    """Picoseconds to microseconds (exact float, round-trip safe)."""
    return value_ps / 1e6


@dataclass(frozen=True)
class SLOReport:
    """One serve run's service-level numbers (JSON-serialisable)."""

    spec_key: str
    stream_digest: str
    requests: int
    completed: int
    shed: int
    shed_by_reason: Dict[str, int]
    deadline_missed: int
    preemptions: int
    stale_completions: int
    warm_completions: int
    batches: int
    makespan_s: float
    throughput_rps: float
    goodput_rps: float
    deadline_miss_pct: float
    shed_pct: float
    latency_us: Dict[str, float]
    tenants: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec_key": self.spec_key,
            "stream_digest": self.stream_digest,
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "deadline_missed": self.deadline_missed,
            "preemptions": self.preemptions,
            "stale_completions": self.stale_completions,
            "warm_completions": self.warm_completions,
            "batches": self.batches,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "deadline_miss_pct": self.deadline_miss_pct,
            "shed_pct": self.shed_pct,
            "latency_us": dict(sorted(self.latency_us.items())),
            "tenants": {name: dict(sorted(stats.items()))
                        for name, stats
                        in sorted(self.tenants.items())},
        }

    def to_json(self) -> str:
        """Canonical rendering: sorted keys, no insignificant spaces."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def digest(self) -> str:
        """SHA-256 of the canonical JSON — the replay-test anchor."""
        return hashlib.sha256(self.to_json().encode("ascii")).hexdigest()


def _latency_block(latencies: List[int]) -> Dict[str, float]:
    """Percentile block over latencies given in picoseconds."""
    ordered = sorted(latencies)
    block = {f"p{percent}": _us(percentile(ordered, percent))
             for percent in PERCENTILES}
    block["mean"] = (_us(round(sum(ordered) / len(ordered)))
                     if ordered else 0.0)
    block["max"] = _us(ordered[-1]) if ordered else 0.0
    return block


def build_report(outcome: ServeOutcome) -> SLOReport:
    """Condense a serve outcome into its SLO report.

    One pass over the completions and one over the sheds gather every
    count, including the per-tenant ones.
    """
    completions = outcome.completions
    requests = len(outcome.requests)
    completed = len(completions)
    shed = len(outcome.sheds)
    names = [spec.name for spec in outcome.spec.tenants]
    tenant_latencies: Dict[str, List[int]] = {name: [] for name in names}
    tenant_missed = dict.fromkeys(names, 0)
    tenant_shed = dict.fromkeys(names, 0)
    latencies: List[int] = []
    missed = warm = last_finish = 0
    # A batch of size k appears as k completion records that share a
    # (finish, board) slot; count distinct slots.
    slots = set()
    for record in completions:
        finish_ps = record.finish_ps
        request = record.request
        latency_ps = finish_ps - request.arrival_ps
        latencies.append(latency_ps)
        slots.add((finish_ps, record.board_id))
        if finish_ps > last_finish:
            last_finish = finish_ps
        if record.warm:
            warm += 1
        tenant = request.tenant
        if tenant in tenant_latencies:
            tenant_latencies[tenant].append(latency_ps)
        if finish_ps > request.deadline_ps:
            missed += 1
            if tenant in tenant_missed:
                tenant_missed[tenant] += 1
    shed_by_reason: Dict[str, int] = {}
    for record in outcome.sheds:
        shed_by_reason[record.reason] = \
            shed_by_reason.get(record.reason, 0) + 1
        if record.request.tenant in tenant_shed:
            tenant_shed[record.request.tenant] += 1
    batches = len(slots)
    makespan_s = last_finish / PS_PER_S
    throughput = completed / makespan_s if makespan_s > 0 else 0.0
    goodput = ((completed - missed) / makespan_s
               if makespan_s > 0 else 0.0)

    tenants: Dict[str, Dict[str, Any]] = {}
    for name in names:
        tenant_latencies[name].sort()
        tenants[name] = {
            "completed": len(tenant_latencies[name]),
            "shed": tenant_shed[name],
            "deadline_missed": tenant_missed[name],
            "p95_us": _us(percentile(tenant_latencies[name], 95)),
        }

    return SLOReport(
        spec_key=outcome.spec.key,
        stream_digest=request_stream_digest(outcome.requests),
        requests=requests,
        completed=completed,
        shed=shed,
        shed_by_reason=shed_by_reason,
        deadline_missed=missed,
        preemptions=outcome.preemptions,
        stale_completions=outcome.stale_completions,
        warm_completions=warm,
        batches=batches,
        makespan_s=makespan_s,
        throughput_rps=throughput,
        goodput_rps=goodput,
        deadline_miss_pct=(100.0 * missed / completed
                           if completed else 0.0),
        shed_pct=100.0 * shed / requests if requests else 0.0,
        latency_us=_latency_block(latencies),
        tenants=tenants,
    )
