"""Event-safety rules (E2xx).

The event kernel owns dispatch: callbacks are scheduled and fired once
in (time, sequence) order.  These rules catch the two classic ways
user code subverts that contract.  (A cancelled handle guards itself
at runtime: ``fire()`` on it is a no-op and ``__slots__`` reject
stray attributes.)
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.registry import Checker, register

#: Methods that register a callback with the kernel or a signal.
CALLBACK_METHODS = ("at", "after", "observe", "on_value", "add_waiter")


def _target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


@register
class LoopCaptureRule(Checker):
    """E201 — scheduled lambdas must not capture loop variables.

    A lambda closed over a ``for`` target sees the *final* value of the
    variable when the kernel fires it, not the value at scheduling
    time — every callback in the loop acts on the same (last) item.
    Bind the current value with a default: ``lambda item=item: ...``.
    """

    rule_id = "E201"
    rule_name = "loop-capture-callback"
    rationale = ("callbacks fire after the loop finishes, seeing only the "
                 "final loop value; bind with lambda x=x: ...")

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._loop_targets: List[Set[str]] = []

    def visit_For(self, node: ast.For) -> None:
        self._loop_targets.append(_target_names(node.target))
        self.generic_visit(node)
        self._loop_targets.pop()

    visit_AsyncFor = visit_For

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A def inside the loop creates a fresh scope per call — only
        # track captures within the same function body.
        saved, self._loop_targets = self._loop_targets, []
        self.generic_visit(node)
        self._loop_targets = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        if (self._loop_targets
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CALLBACK_METHODS):
            in_scope: Set[str] = set()
            for targets in self._loop_targets:
                in_scope |= targets
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                if isinstance(arg, ast.Lambda):
                    captured = self._captured_loop_names(arg, in_scope)
                    for name in sorted(captured):
                        self.report(arg, f"lambda passed to "
                                         f".{node.func.attr}() captures "
                                         f"loop variable {name!r}; bind it "
                                         f"with {name}={name} in the "
                                         f"lambda parameters")
        self.generic_visit(node)

    @staticmethod
    def _captured_loop_names(lam: ast.Lambda, loop_names: Set[str]) -> Set[str]:
        args = lam.args
        bound = {a.arg for a in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs)}
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
        captured: Set[str] = set()
        for node in ast.walk(lam.body):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in loop_names and node.id not in bound):
                captured.add(node.id)
        return captured


@register
class ManualFireRule(Checker):
    """E202 — only the kernel fires event handles.

    Calling ``handle.fire()`` from model code runs the callback at the
    *caller's* position in the event loop, outside the (time, sequence)
    total order — the callback observes a simulation state it was never
    scheduled against.  Schedule through ``Simulator.at/after`` instead.
    """

    rule_id = "E202"
    rule_name = "manual-event-fire"
    rationale = ("firing a handle bypasses (time, sequence) dispatch "
                 "order; only the kernel may call fire()")
    exempt_paths = ("*/repro/sim/kernel.py",)

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "fire" and not node.args
                and not node.keywords):
            self.report(node, "manual .fire() on an event handle; "
                              "schedule the callback via Simulator.at/"
                              "after and let the kernel dispatch it")
        self.generic_visit(node)

