"""Per-module summaries: pass 1 of the whole-program analyzer.

One parse of a file produces a :class:`ModuleSummary` — everything the
cross-file rules need to know about the module *without* re-reading
it: its dotted name and the top-level functions it defines, with their
parameter names.  That is exactly what the backend-contract rules
(B801–B803) compare across a backend package's modules.

Summaries are plain data and serialize to JSON (:meth:`to_dict` /
:meth:`from_dict`), which is what makes the incremental cache work:
a warm run rebuilds the project index from cached summaries without
parsing a single unchanged file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class FunctionSummary:
    """What the cross-file rules know about one top-level function."""

    name: str
    line: int
    params: Tuple[str, ...]


@dataclass
class ModuleSummary:
    """Pass-1 knowledge about one module.

    ``functions`` maps each top-level function's name to its summary.
    """

    module: str
    path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "path": self.path,
            "functions": {name: {"line": function.line,
                                 "params": list(function.params)}
                          for name, function
                          in sorted(self.functions.items())},
        }

    @staticmethod
    def from_dict(data: dict) -> "ModuleSummary":
        return ModuleSummary(
            module=data["module"],
            path=data["path"],
            functions={name: FunctionSummary(name=name,
                                             line=raw["line"],
                                             params=tuple(raw["params"]))
                       for name, raw in data["functions"].items()},
        )


def summarize_module(tree: ast.Module, module: str,
                     path: str) -> ModuleSummary:
    """Build the pass-1 summary of one parsed module."""
    summary = ModuleSummary(module=module, path=path)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = stmt.args
            params = tuple(arg.arg for arg in
                           (*args.posonlyargs, *args.args,
                            *args.kwonlyargs))
            summary.functions[stmt.name] = FunctionSummary(
                name=stmt.name, line=stmt.lineno, params=params)
    return summary
