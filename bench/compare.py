"""Compare two sets of ``run`` results: ``python -m bench compare A/ B/``.

The rules are the choosing-metrics ones.  Runs of the two sets are
paired in the order they were made.  For each (workload, metric):

* **unresolved** — the spread of A (its interquartile range, as a
  share of its median) is wider than the metric's bound, and B does
  not read better than A on every run of both;
* **better** — B wins at least 9 of every 10 pairs and its median
  differs from A's by more than A's interquartile range;
* **worse** — B's median is worse than A's by more than the bound;
* **within bound** — anything else.

Deterministic metrics have a bound of 0, so any change to them is
better or worse, never within bound.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics
from typing import Dict, List, Tuple

#: The end-to-end metrics a ``run`` reports and ``compare`` judges:
#: (unit, better, bound).  ``BENCHMARK.json`` names the ones every
#: workload reports.  Host times here are nominal times (see
#: ``bench.workloads.HostSpeed``).
METRICS: Dict[str, Tuple[str, str, float]] = {
    "op_p50_ms": ("ms", "lower", 0.15),
    "reconfig_p90_ms": ("ms", "lower", 0.15),
    "codec_mb_s": ("MB/s", "higher", 0.15),
    "serve_req_s": ("req/s", "higher", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
    "error_rate": ("fraction", "lower", 0.0),
    "paper_err_pp": ("pp", "lower", 0.0),
    "sim_reconfig_us": ("us", "lower", 0.0),
    "sim_p99_us": ("us", "lower", 0.0),
    "sim_goodput_rps": ("req/s", "higher", 0.0),
}

#: Wall-time readings a ``run`` also reports, with their units.  They
#: move with the host's speed as much as with the program's, so
#: ``compare`` does not judge them.
WALL_READINGS: Dict[str, str] = {
    "op_wall_p50_ms": "ms",
    "setup_wall_s": "s",
    "probe_us": "us",
}

WIN_SHARE = 0.9


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, win fraction of new over base)``; runs in order."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    first, third = quartiles(base)
    spread = third - first
    pairs = list(zip(base, new))
    wins = sum(1 for old, fresh in pairs if sign * (old - fresh) > 0)
    win_share = wins / len(pairs)
    if base_median:
        relative_spread = spread / abs(base_median)
        worse_by = sign * (new_median - base_median) / abs(base_median)
    else:
        relative_spread = math.inf if spread else 0.0
        worse_by = (math.inf if sign * (new_median - base_median) > 0
                    else 0.0)
    gain = sign * (base_median - new_median)
    if relative_spread > bound \
            and not max(sign * value for value in new) \
            < min(sign * value for value in base):
        return "unresolved", win_share
    if win_share >= WIN_SHARE and gain > 0 and abs(gain) > spread:
        return "better", win_share
    if worse_by > bound:
        return "worse", win_share
    return "within bound", win_share


def load_runs(directory: str) -> Dict[str, List[Dict[str, float]]]:
    """Per workload, each run's metric values, in the order run."""
    documents = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("mode") == "run":
            documents.append(document)
    documents.sort(key=lambda document: document["started_ns"])
    runs: Dict[str, List[Dict[str, float]]] = {}
    for document in documents:
        runs.setdefault(document["workload"], []).append(
            {name: entry["value"]
             for name, entry in document["metrics"].items()})
    return runs


def compare(base_dir: str, new_dir: str) -> List[Dict[str, object]]:
    """One row per (workload, metric) present in both sets."""
    base_runs = load_runs(base_dir)
    new_runs = load_runs(new_dir)
    rows = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        for metric, (unit, better, bound) in METRICS.items():
            base = [run[metric] for run in base_runs[workload]
                    if metric in run]
            new = [run[metric] for run in new_runs[workload]
                   if metric in run]
            if not base or not new:
                continue
            label, win_share = verdict(base, new, better, bound)
            rows.append({
                "workload": workload, "metric": metric, "unit": unit,
                "better": better, "bound": bound,
                "base": (statistics.median(base),) + quartiles(base),
                "new": (statistics.median(new),) + quartiles(new),
                "runs": (len(base), len(new)),
                "win_share": win_share, "verdict": label,
            })
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'workload':<15} {'metric':<16} {'unit':<8} "
             f"{'A median [q1, q3]':<32} {'B median [q1, q3]':<32} "
             f"{'wins':>5}  verdict"]
    for row in rows:
        cells = []
        for side in ("base", "new"):
            median, first, third = row[side]
            cells.append(f"{median:.6g} [{first:.6g}, {third:.6g}]")
        lines.append(f"{row['workload']:<15} {row['metric']:<16} "
                     f"{row['unit']:<8} {cells[0]:<32} {cells[1]:<32} "
                     f"{row['win_share']:>5.2f}  {row['verdict']}")
    return "\n".join(lines)
