"""The benchmark harness: five workloads, end-to-end and per-layer metrics.

Run from the repository root as ``python -m bench run|trace|compare``;
see ``bench/README.md``.
"""
