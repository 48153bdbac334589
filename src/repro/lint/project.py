"""Project index: import graph, call resolution, unit fixed point.

Pass 1 (:mod:`repro.lint.summaries`) reduces every file to a
:class:`ModuleSummary`; this module stitches those into one
:class:`ProjectIndex` the flow rules query:

* ``resolve(module, call_name, enclosing_class)`` — map a call
  expression to the :class:`FunctionSummary` it invokes, through
  import aliases, local definitions, ``self.`` receivers, and (as a
  last resort) a project-wide unique-name match.  Ambiguity resolves
  to ``None`` — the flow rules stay silent rather than guess.
* ``return_unit(qualname)`` — the unit token a function's return
  value carries, propagated through the call graph to a fixed point
  (``def total(): return self.wait_ps()`` inherits ``ps``).

The index also exposes a deterministic :meth:`signature` — the
SHA-256 of every module's summary — which keys the incremental
result cache: per-file findings stay valid exactly as long as no
summary anywhere changed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro.lint.summaries import FunctionSummary, ModuleSummary

#: Method names too generic for the unique-name fallback; resolving
#: ``obj.update(...)`` to *the one function named update* would be a
#: guess, not an inference.
GENERIC_NAMES = frozenset({
    "update", "get", "put", "add", "run", "append", "extend", "pop",
    "read", "write", "close", "open", "copy", "clear", "items",
    "keys", "values", "join", "split", "format", "encode", "decode",
    "sort", "reverse", "count", "index", "insert", "remove", "next",
    "send", "result", "submit", "map", "main", "visit", "report",
})

#: Propagation rounds; call chains deeper than this stay unknown.
MAX_PROPAGATION_ROUNDS = 10


class ProjectIndex:
    """Cross-module lookup tables built from per-module summaries."""

    def __init__(self, modules: List[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        self.by_path: Dict[str, ModuleSummary] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        self._by_name: Dict[str, List[str]] = {}
        for summary in sorted(modules, key=lambda m: m.module):
            self.modules[summary.module] = summary
            self.by_path[summary.path] = summary
            for qualname, function in summary.functions.items():
                self.functions[qualname] = function
                self._by_name.setdefault(function.name, []).append(qualname)
        self._return_units = self._propagate_return_units()

    # -- call resolution ----------------------------------------------

    def resolve(self, module: Optional[ModuleSummary],
                call_name: Optional[str],
                enclosing_class: Optional[str] = None,
                ) -> Optional[FunctionSummary]:
        """The summary a dotted call name denotes, or ``None``."""
        if not call_name:
            return None
        parts = call_name.split(".")

        if module is not None:
            if parts[0] == "self" and enclosing_class and len(parts) == 2:
                qualname = f"{module.module}.{enclosing_class}.{parts[1]}"
                if qualname in self.functions:
                    return self.functions[qualname]

            target = module.imports.get(parts[0])
            if target is not None:
                qualname = ".".join([target, *parts[1:]])
                if qualname in self.functions:
                    return self.functions[qualname]
                # ``from x import Cls`` + ``Cls.method`` resolves the
                # classmethod through the imported class qualname.

            qualname = f"{module.module}.{call_name}"
            if qualname in self.functions:
                return self.functions[qualname]

        # Unique-name fallback: sound only when exactly one function
        # in the whole project bears the terminal name.
        terminal = parts[-1]
        if terminal in GENERIC_NAMES or terminal.startswith("__"):
            return None
        candidates = self._by_name.get(terminal, [])
        if len(candidates) == 1:
            return self.functions[candidates[0]]
        return None

    # -- return units -------------------------------------------------

    def return_unit(self, qualname: str) -> Optional[str]:
        return self._return_units.get(qualname)

    def return_unit_of(self, summary: Optional[FunctionSummary]
                       ) -> Optional[str]:
        if summary is None:
            return None
        return self._return_units.get(summary.qualname)

    def _propagate_return_units(self) -> Dict[str, Optional[str]]:
        units: Dict[str, Optional[str]] = {}
        for _ in range(MAX_PROPAGATION_ROUNDS):
            changed = False
            for summary in self.modules.values():
                for qualname, function in summary.functions.items():
                    unit = self._combine_returns(summary, function, units)
                    if units.get(qualname) != unit:
                        units[qualname] = unit
                        changed = True
            if not changed:
                break
        return units

    def _combine_returns(self, module: ModuleSummary,
                         function: FunctionSummary,
                         units: Dict[str, Optional[str]],
                         ) -> Optional[str]:
        seen: set = set()
        for kind, value in function.returns:
            if kind == "const":
                continue  # a literal 0 fallback does not veto a unit
            if kind == "unit":
                seen.add(value)
            elif kind == "call":
                callee = self.resolve(module, value)
                if callee is None or callee.qualname == function.qualname:
                    return None
                resolved = units.get(callee.qualname)
                if resolved is None:
                    return None
                seen.add(resolved)
            else:
                return None
        if len(seen) == 1:
            return seen.pop()
        return None

    # -- identity -----------------------------------------------------

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


def build_index(summaries: List[ModuleSummary]) -> ProjectIndex:
    return ProjectIndex(summaries)
