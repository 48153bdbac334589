"""Project index: every module summary, by module name and by path.

Pass 1 (:mod:`repro.lint.summaries`) reduces every file to a
:class:`ModuleSummary`; this module gathers those into one
:class:`ProjectIndex` the project rules query by module name (the
backend-contract rules look up a package's ``pure`` and
``native_backend`` siblings there).

The index also exposes a deterministic :meth:`signature` — the
SHA-256 of every module's summary — which keys the incremental
result cache: per-file findings stay valid exactly as long as no
summary anywhere changed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.lint.summaries import ModuleSummary


class ProjectIndex:
    """Cross-module lookup tables built from per-module summaries."""

    def __init__(self, modules: List[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        self.by_path: Dict[str, ModuleSummary] = {}
        for summary in sorted(modules, key=lambda m: m.module):
            self.modules[summary.module] = summary
            self.by_path[summary.path] = summary

    def signature(self) -> str:
        """SHA-256 over every module summary, in module order."""
        digest = hashlib.sha256()
        for module in sorted(self.modules):
            digest.update(module.encode("utf-8"))
            digest.update(summary_digest(self.modules[module])
                          .encode("utf-8"))
        return digest.hexdigest()


def summary_digest(summary: ModuleSummary) -> str:
    """Stable content hash of one module summary."""
    canonical = json.dumps(summary.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def module_name_for(path: str) -> str:
    """Dotted module name for a file path.

    Walks up while parent directories are packages (contain
    ``__init__.py``), so ``src/repro/sim/kernel.py`` maps to
    ``repro.sim.kernel`` regardless of the ``src`` prefix.  Files
    outside any package use their stem.
    """
    import os

    head, tail = os.path.split(os.path.abspath(path))
    stem = tail[:-3] if tail.endswith(".py") else tail
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(head, "__init__.py")):
        head, tail = os.path.split(head)
        parts.insert(0, tail)
    return ".".join(parts) if parts else stem
