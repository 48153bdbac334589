"""Per-module summaries: pass 1 of the whole-program analyzer.

One parse of a file produces a :class:`ModuleSummary` — everything the
cross-file rules need to know about the module *without* re-reading
it: its import aliases, the functions it defines (with per-parameter
unit tokens and a classification of every ``return`` expression), the
dataclass constructors it declares, and which module-level names are
bound to mutable objects.

Summaries are plain data and serialize to JSON (:meth:`to_dict` /
:meth:`from_dict`), which is what makes the incremental cache work:
a warm run rebuilds the project index from cached summaries without
parsing a single unchanged file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.astutils import dotted_name, terminal_name
from repro.lint.unitlex import unit_of_attr, unit_of_name, unit_of_param

#: Builtins that pass their argument's unit through unchanged.
PASSTHROUGH_CALLS = ("int", "round", "abs", "max", "min", "float")

#: ``repro.units`` helpers with a fixed return unit.
INTRINSIC_RETURN_UNITS: Dict[str, str] = {
    "us": "ps", "ms": "ps", "ns": "ps",
    "ps_to_us": "us", "ps_to_ms": "ms",
    "bandwidth_mbps": "mbps", "theoretical_bandwidth_mbps": "mbps",
}

#: Module-level value expressions considered mutable state.
_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set,
                     ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_FACTORIES = ("list", "dict", "set", "defaultdict", "deque",
                      "Counter", "OrderedDict")


@dataclass(frozen=True)
class ParamInfo:
    """One parameter: its name and inferred unit token."""

    name: str
    unit: Optional[str] = None

    def to_dict(self) -> dict:
        return {"name": self.name, "unit": self.unit}

    @staticmethod
    def from_dict(data: dict) -> "ParamInfo":
        return ParamInfo(name=data["name"], unit=data["unit"])


@dataclass(frozen=True)
class FunctionSummary:
    """What the cross-file rules know about one function.

    ``returns`` classifies every ``return <expr>`` statement as one of
    ``("unit", token)``, ``("call", name)``, ``("const", None)`` or
    ``("unknown", None)`` — the project index resolves the ``call``
    entries through the call graph (fixed point), giving each function
    a final ``return_unit``.
    """

    name: str
    qualname: str
    line: int
    kind: str  # "function" | "method" | "classmethod" | "dataclass"
    params: Tuple[ParamInfo, ...]
    returns: Tuple[Tuple[str, Optional[str]], ...] = ()
    global_reads: Tuple[str, ...] = ()
    is_nested: bool = False

    @property
    def explicit_params(self) -> Tuple[ParamInfo, ...]:
        """Parameters minus the implicit ``self``/``cls`` receiver."""
        if self.kind in ("method", "classmethod") and self.params:
            return self.params[1:]
        return self.params

    def returns_only_constants(self) -> bool:
        return bool(self.returns) and all(kind == "const"
                                          for kind, _ in self.returns)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "qualname": self.qualname,
            "line": self.line,
            "kind": self.kind,
            "params": [param.to_dict() for param in self.params],
            "returns": [list(entry) for entry in self.returns],
            "global_reads": list(self.global_reads),
            "is_nested": self.is_nested,
        }

    @staticmethod
    def from_dict(data: dict) -> "FunctionSummary":
        return FunctionSummary(
            name=data["name"],
            qualname=data["qualname"],
            line=data["line"],
            kind=data["kind"],
            params=tuple(ParamInfo.from_dict(p) for p in data["params"]),
            returns=tuple((kind, value) for kind, value in data["returns"]),
            global_reads=tuple(data["global_reads"]),
            is_nested=data["is_nested"],
        )


@dataclass
class ModuleSummary:
    """Pass-1 knowledge about one module."""

    module: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    mutable_globals: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "path": self.path,
            "imports": dict(sorted(self.imports.items())),
            "functions": {qualname: summary.to_dict()
                          for qualname, summary
                          in sorted(self.functions.items())},
            "mutable_globals": list(self.mutable_globals),
        }

    @staticmethod
    def from_dict(data: dict) -> "ModuleSummary":
        return ModuleSummary(
            module=data["module"],
            path=data["path"],
            imports=dict(data["imports"]),
            functions={qualname: FunctionSummary.from_dict(raw)
                       for qualname, raw in data["functions"].items()},
            mutable_globals=tuple(data["mutable_globals"]),
        )


def static_unit(node: ast.AST) -> Optional[str]:
    """Environment-free unit of an expression (name/attr conventions).

    This is the pass-1 approximation: no variable tracking, just the
    naming conventions plus the handful of ``repro.units`` intrinsics.
    The flow rules in pass 2 layer assignment tracking on top.
    """
    if isinstance(node, ast.Name):
        return unit_of_name(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of_attr(node.attr)
    if isinstance(node, ast.UnaryOp):
        return static_unit(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = static_unit(node.left)
            right = static_unit(node.right)
            if left is not None and right is not None:
                return left if left == right else None
            return left if left is not None else right
        if isinstance(node.op, (ast.Mult, ast.FloorDiv)):
            left = static_unit(node.left)
            right = static_unit(node.right)
            if left is not None and right is None \
                    and _is_number(node.right):
                return left
            if right is not None and left is None \
                    and _is_number(node.left):
                return right
        return None
    if isinstance(node, ast.IfExp):
        body = static_unit(node.body)
        orelse = static_unit(node.orelse)
        return body if body == orelse else None
    if isinstance(node, ast.Call):
        callee = terminal_name(node.func)
        if callee in INTRINSIC_RETURN_UNITS:
            return INTRINSIC_RETURN_UNITS[callee]
        if callee in PASSTHROUGH_CALLS and node.args:
            units = {static_unit(arg) for arg in node.args}
            units.discard(None)
            if len(units) == 1:
                return units.pop()
        return None
    return None


def _is_number(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _classify_return(value: Optional[ast.AST]
                     ) -> Tuple[str, Optional[str]]:
    if value is None or (isinstance(value, ast.Constant)
                         and not isinstance(value.value, bool)):
        return ("const", None)
    unit = static_unit(value)
    if unit is not None:
        return ("unit", unit)
    if isinstance(value, ast.Call):
        callee = dotted_name(value.func)
        if callee is not None:
            return ("call", callee)
    return ("unknown", None)


class _GlobalReadCollector(ast.NodeVisitor):
    """Names a function loads that it never binds itself."""

    def __init__(self) -> None:
        self.loaded: List[str] = []
        self.bound: set = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loaded.append(node.id)
        else:
            self.bound.add(node.id)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.bound.add(node.name)
        self._bind_args(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._bind_args(node)
        self.generic_visit(node)

    def _bind_args(self, node: ast.AST) -> None:
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self.bound.add(arg.arg)
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                self.bound.add(arg.arg)

    def reads(self) -> Tuple[str, ...]:
        seen = []
        for name in self.loaded:
            if name not in self.bound and name not in seen:
                seen.append(name)
        return tuple(sorted(seen))


def _summarize_function(node: ast.AST, qualname: str, kind: str,
                        nested: bool) -> FunctionSummary:
    params: List[ParamInfo] = []
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        params.append(ParamInfo(name=arg.arg,
                                unit=unit_of_param(arg.arg)))

    returns: List[Tuple[str, Optional[str]]] = []

    def collect_returns(stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes own their returns
            if isinstance(stmt, ast.Return):
                returns.append(_classify_return(stmt.value))
                continue
            for attr in ("body", "orelse", "finalbody", "handlers"):
                block = getattr(stmt, attr, None)
                if not block:
                    continue
                for item in block:
                    if isinstance(item, ast.excepthandler):
                        collect_returns(item.body)
                    else:
                        collect_returns([item])

    collect_returns(node.body)

    collector = _GlobalReadCollector()
    collector._bind_args(node)
    for stmt in node.body:
        collector.visit(stmt)

    return FunctionSummary(
        name=node.name,
        qualname=qualname,
        line=node.lineno,
        kind=kind,
        params=tuple(params),
        returns=tuple(returns),
        global_reads=collector.reads(),
        is_nested=nested,
    )


def _function_kind(node: ast.AST, in_class: bool) -> str:
    decorators = {terminal_name(dec) if not isinstance(dec, ast.Call)
                  else terminal_name(dec.func)
                  for dec in node.decorator_list}
    if not in_class:
        return "function"
    if "staticmethod" in decorators:
        return "function"
    if "classmethod" in decorators:
        return "classmethod"
    return "method"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if terminal_name(target) == "dataclass":
            return True
    return False


def _dataclass_ctor(node: ast.ClassDef, qualname: str
                    ) -> Optional[FunctionSummary]:
    params: List[ParamInfo] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            name = stmt.target.id
            if name.startswith("_") or _is_classvar(stmt.annotation):
                continue
            params.append(ParamInfo(name=name, unit=unit_of_param(name)))
    if not params:
        return None
    return FunctionSummary(
        name=node.name,
        qualname=qualname,
        line=node.lineno,
        kind="dataclass",
        params=tuple(params),
    )


def _is_classvar(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        return terminal_name(annotation.value) == "ClassVar"
    return terminal_name(annotation) == "ClassVar"


def summarize_module(tree: ast.Module, module: str,
                     path: str) -> ModuleSummary:
    """Build the pass-1 summary of one parsed module."""
    summary = ModuleSummary(module=module, path=path)
    mutable: List[str] = []

    def visit_body(body, prefix: str, in_class: bool,
                   nested: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{stmt.name}"
                kind = _function_kind(stmt, in_class)
                summary.functions[qualname] = _summarize_function(
                    stmt, qualname, kind, nested)
                visit_body(stmt.body, qualname, in_class=False,
                           nested=True)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{prefix}.{stmt.name}"
                if _is_dataclass(stmt):
                    ctor = _dataclass_ctor(stmt, qualname)
                    if ctor is not None:
                        summary.functions[qualname] = ctor
                visit_body(stmt.body, qualname, in_class=True,
                           nested=nested)

    visit_body(tree.body, module, in_class=False, nested=False)

    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                summary.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom) and stmt.module \
                and stmt.level == 0:
            for alias in stmt.names:
                local = alias.asname or alias.name
                summary.imports[local] = f"{stmt.module}.{alias.name}"
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) \
                        and _is_mutable_value(stmt.value):
                    mutable.append(target.id)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None \
                    and _is_mutable_value(stmt.value):
                mutable.append(stmt.target.id)

    summary.mutable_globals = tuple(sorted(set(mutable)))
    return summary


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_DISPLAYS):
        return True
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in _MUTABLE_FACTORIES
    return False
