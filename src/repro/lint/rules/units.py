"""Unit-discipline rules (U0xx).

The kernel counts time in integer picoseconds and frequencies flow
through :class:`repro.units.Frequency`; these rules keep raw floats
from leaking into either representation.
"""

from __future__ import annotations

import ast

from repro.lint.registry import Checker, register
from repro.lint.astutils import (
    is_int_annotation,
    iter_float_leaks,
    name_has_suffix,
    terminal_name,
)

#: Identifier suffixes that denote integer-typed physical quantities.
INT_UNIT_SUFFIXES = ("_ps", "_hz", "_bytes")

#: Names containing this are *rates* (``bytes_per_ps``,
#: ``uj_per_kb``) — ratios are float by nature, not unit-suffixed
#: integers, so the U001 discipline does not apply to them.
RATE_MARKER = "_per_"

#: Frequency-ish identifier suffixes for the raw-arithmetic rule.
FREQUENCY_SUFFIXES = ("_hz", "mhz", "khz", "ghz")

#: Unit-conversion magnitudes whose inline use marks hand-rolled
#: frequency math (1e3 kHz, 1e6 MHz, 1e9 GHz scaling).
CONVERSION_CONSTANTS = (1e3, 1e6, 1e9)

#: Methods whose first positional argument is a picosecond time/delay.
TIME_METHODS = ("call_at", "call_after")


@register
class UnitSuffixIntRule(Checker):
    """U001 — ``*_ps`` / ``*_hz`` / ``*_bytes`` must be annotated ``int``.

    The DCM ``F_in * M / D`` synthesis and the event heap both rely on
    exact integer arithmetic; a float-typed picosecond or hertz value
    reintroduces rounding drift the unit types were built to remove.
    """

    rule_id = "U001"
    rule_name = "unit-suffix-int"
    rationale = ("integer picoseconds/hertz/bytes keep DCM synthesis and "
                 "event ordering exact; float-typed unit fields drift")

    @staticmethod
    def _suffix_applies(name: str) -> bool:
        lowered = name.lower()
        return (lowered.endswith(INT_UNIT_SUFFIXES)
                and RATE_MARKER not in lowered)

    def _check_annotation(self, node: ast.AST, name: str,
                          annotation: ast.AST | None) -> None:
        if not self._suffix_applies(name):
            return
        # ``*_bytes`` may also be a raw payload blob (``file_bytes:
        # bytes``); only float-typed counts are unit leaks.
        if (name.lower().endswith("_bytes")
                and isinstance(annotation, ast.Name)
                and annotation.id == "bytes"):
            return
        if annotation is None:
            self.report(node, f"{name!r} carries an integer unit suffix "
                              f"but has no annotation; annotate it as int")
        elif not is_int_annotation(annotation):
            rendered = ast.unparse(annotation)
            self.report(node, f"{name!r} carries an integer unit suffix "
                              f"but is annotated {rendered!r}; use int")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_args(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_args(node)
        self.generic_visit(node)

    def _check_args(self, node: ast.AST) -> None:
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            self._check_annotation(arg, arg.arg, arg.annotation)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = terminal_name(node.target)
        if name is not None:
            self._check_annotation(node, name, node.annotation)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            name = terminal_name(target)
            if name is None or not self._suffix_applies(name):
                continue
            for leak in iter_float_leaks(node.value):
                self.report(leak, f"float expression assigned to integer "
                                  f"unit value {name!r}; convert with "
                                  f"round()/int() or repro.units helpers")
        self.generic_visit(node)


@register
class FloatTimeArgRule(Checker):
    """U002 — no float expressions into picosecond time parameters.

    ``Simulator.call_at``/``call_after`` compare and heap-order
    timestamps; a float argument makes event ordering depend on
    representation error instead of the total (time, sequence) order.
    """

    rule_id = "U002"
    rule_name = "float-time-arg"
    rationale = ("Simulator.call_at/call_after and *_ps parameters are "
                 "integer picoseconds; float arguments corrupt event "
                 "ordering")

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in TIME_METHODS and node.args):
            self._check_value(node.args[0], f"{node.func.attr}()")
        for keyword in node.keywords:
            if (keyword.arg and keyword.arg.lower().endswith("_ps")
                    and RATE_MARKER not in keyword.arg.lower()):
                self._check_value(keyword.value, f"{keyword.arg}=")
        self.generic_visit(node)

    def _check_value(self, value: ast.AST, where: str) -> None:
        for leak in iter_float_leaks(value):
            self.report(leak, f"float expression passed to picosecond "
                              f"parameter {where}; convert with round()/"
                              f"int() or repro.units.us/ms/ns")


@register
class RawFrequencyMathRule(Checker):
    """U003 — no hand-rolled MHz/kHz scaling outside ``repro.units``.

    Multiplying a frequency-named value by 1e6 re-derives what
    ``Frequency.from_mhz``/``.mhz`` already define once, exactly;
    scattered copies are where unit mistakes (MHz-vs-Hz, binary-vs-
    decimal) historically creep in.
    """

    rule_id = "U003"
    rule_name = "raw-frequency-math"
    rationale = ("frequency conversions belong in repro.units.Frequency; "
                 "inline 1e6 scaling invites MHz/Hz mixups")
    exempt_paths = ("*/repro/units.py",)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Mult, ast.Div)):
            for side, other in ((node.left, node.right),
                                (node.right, node.left)):
                if (name_has_suffix(side, FREQUENCY_SUFFIXES)
                        and self._is_conversion_constant(other)):
                    name = terminal_name(side)
                    self.report(node, f"raw unit conversion on frequency "
                                      f"value {name!r}; use repro.units."
                                      f"Frequency (from_mhz/.mhz/.scaled)")
                    break
        self.generic_visit(node)

    @staticmethod
    def _is_conversion_constant(node: ast.AST) -> bool:
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)
                and float(node.value) in CONVERSION_CONSTANTS)
