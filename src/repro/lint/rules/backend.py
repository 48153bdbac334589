"""B-rules: accel backend-contract conformance.

The datapath backend contract (``repro.accel``) is: ``pure.py`` is
the semantic reference, ``native_backend.py`` mirrors every public
kernel signature byte-for-byte, the package ``__init__`` exposes one
dispatch function per kernel that records observability counters, and
*nobody else* imports a backend module directly — backend selection
must stay behind ``select()``/``active()`` or the golden-digest
equivalence guarantee silently stops covering the code that bypassed
it.

These rules verify the contract structurally, and generically: any
package that contains both a ``pure`` and a ``native_backend``
submodule is held to it, which is what lets the fixture packages be
checked by the exact code that checks ``repro.accel``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.lint.astutils import terminal_name
from repro.lint.registry import ProjectChecker, register
from repro.lint.summaries import FunctionSummary, ModuleSummary

#: The semantic-reference submodule every backend package must have.
PURE = "pure"
#: Registered implementation submodules that mirror the reference.
NATIVE = "native_backend"
IMPL_BACKENDS = (NATIVE,)


def is_backend_package(index, pkg: str) -> bool:
    """A package with a ``pure`` reference and >= 1 implementation."""
    if f"{pkg}.{PURE}" not in index.modules:
        return False
    return any(f"{pkg}.{impl}" in index.modules
               for impl in IMPL_BACKENDS)


def backend_package_of(index, module_name: str) -> Optional[str]:
    """The backend package a module belongs to, if any.

    ``pkg.pure`` / ``pkg.native_backend`` / ``pkg`` itself all map to
    ``pkg`` when the index knows the pure reference plus at least one
    implementation submodule.
    """
    candidates = [module_name]
    head, _, tail = module_name.rpartition(".")
    if tail == PURE or tail in IMPL_BACKENDS:
        candidates.append(head)
    for pkg in candidates:
        if is_backend_package(index, pkg):
            return pkg
    return None


def public_kernels(module: ModuleSummary) -> List[FunctionSummary]:
    """Top-level public functions of a backend module, in source order."""
    return sorted((function for function in module.functions.values()
                   if not function.name.startswith("_")),
                  key=lambda f: f.line)


class _BackendChecker(ProjectChecker):
    """Shared role detection for the contract rules."""

    def _role(self) -> Tuple[Optional[str], Optional[str]]:
        """``(role, package)`` of the file under inspection."""
        if self.index is None or self.module is None:
            return None, None
        name = self.module.module
        pkg = backend_package_of(self.index, name)
        if pkg is None:
            return None, None
        if name == f"{pkg}.{PURE}":
            return PURE, pkg
        for impl in IMPL_BACKENDS:
            if name == f"{pkg}.{impl}":
                return impl, pkg
        if name == pkg:
            return "dispatch", pkg
        return None, pkg

    def _sibling(self, pkg: str, sub: str) -> ModuleSummary:
        return self.index.modules[f"{pkg}.{sub}"]

    def _top_level_functions(self, tree: ast.Module
                             ) -> List[ast.FunctionDef]:
        return [stmt for stmt in tree.body
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))]


@register
class BackendSignatureDrift(_BackendChecker):
    rule_id = "B801"
    rule_name = "backend-signature-drift"
    rationale = (
        "Every implementation backend must mirror every public pure "
        "kernel with an identical signature; drift means the dispatch "
        "layer calls the backends differently and the byte-identity "
        "equivalence suite no longer tests what production runs."
    )

    def visit_Module(self, node: ast.Module) -> None:
        role, pkg = self._role()
        if role == PURE:
            self._check_pure_side(node, pkg)
        elif role in IMPL_BACKENDS:
            self._check_impl_side(node, pkg)

    def _check_pure_side(self, tree: ast.Module, pkg: str) -> None:
        impl_mods = [self._sibling(pkg, impl) for impl in IMPL_BACKENDS
                     if f"{pkg}.{impl}" in self.index.modules]
        for definition in self._top_level_functions(tree):
            if definition.name.startswith("_"):
                continue
            reference = self.module.functions.get(definition.name)
            if reference is None:
                continue
            for impl_mod in impl_mods:
                counterpart = impl_mod.functions.get(definition.name)
                if counterpart is None:
                    self.report(definition, (
                        f"kernel '{definition.name}' has no counterpart "
                        f"in {impl_mod.module}; the backends have "
                        f"drifted apart"))
                elif counterpart.params != reference.params:
                    self.report(definition, (
                        f"kernel '{definition.name}' signature drift: "
                        f"pure reference takes {reference.params} "
                        f"but {impl_mod.module} takes "
                        f"{counterpart.params}"))

    def _check_impl_side(self, tree: ast.Module, pkg: str) -> None:
        pure_mod = self._sibling(pkg, PURE)
        pure_names = {k.name for k in public_kernels(pure_mod)}
        for definition in self._top_level_functions(tree):
            if definition.name.startswith("_"):
                continue
            if definition.name not in pure_names:
                self.report(definition, (
                    f"backend function '{definition.name}' has no pure "
                    f"reference in {pkg}.{PURE}; every public kernel "
                    f"needs a semantic reference implementation"))


@register
class BackendMissingDispatch(_BackendChecker):
    rule_id = "B802"
    rule_name = "backend-missing-dispatch"
    rationale = (
        "Every public kernel must be reachable through a dispatch "
        "function in the backend package __init__; a kernel without "
        "one forces callers to import a backend directly, bypassing "
        "selection and observability."
    )

    def visit_Module(self, node: ast.Module) -> None:
        role, pkg = self._role()
        if role != PURE:
            return
        package_mod = self.index.modules.get(pkg)
        if package_mod is None:
            return
        for definition in self._top_level_functions(node):
            if definition.name.startswith("_"):
                continue
            if definition.name not in package_mod.functions:
                self.report(definition, (
                    f"kernel '{definition.name}' has no dispatch "
                    f"function in {pkg}.__init__; callers cannot reach "
                    f"it without importing a backend directly"))


@register
class DispatchMissingRecord(_BackendChecker):
    rule_id = "B803"
    rule_name = "dispatch-missing-record"
    rationale = (
        "Dispatch functions are the observability choke point: one "
        "that never calls record() makes its kernel invisible to the "
        "accel counters, so backend comparisons silently understate "
        "traffic."
    )

    def visit_Module(self, node: ast.Module) -> None:
        role, pkg = self._role()
        if role != "dispatch":
            return
        kernel_names = {k.name
                        for k in public_kernels(self._sibling(pkg, PURE))}
        for definition in self._top_level_functions(node):
            if definition.name not in kernel_names:
                continue
            if any(isinstance(child, ast.Call)
                   and terminal_name(child.func) == "record"
                   for child in ast.walk(definition)):
                continue
            self.report(definition, (
                f"dispatch function '{definition.name}' never calls "
                f"record(); its traffic is invisible to the accel "
                f"counters"))


@register
class BackendBypass(_BackendChecker):
    rule_id = "B804"
    rule_name = "backend-bypass"
    rationale = (
        "Importing a backend module directly pins the implementation "
        "and skips record(); all call sites outside the backend "
        "package must go through its dispatch functions (or active() "
        "inside measured inner loops)."
    )

    def _outside(self, pkg: str) -> bool:
        name = self.module.module
        return name != pkg and not name.startswith(f"{pkg}.")

    def _check_target(self, node: ast.AST, target: str) -> None:
        head, _, tail = target.rpartition(".")
        if (tail != PURE and tail not in IMPL_BACKENDS) or not head:
            return
        if not is_backend_package(self.index, head) \
                or f"{head}.{tail}" not in self.index.modules:
            return
        if self._outside(head):
            self.report(node, (
                f"direct import of backend module '{target}' bypasses "
                f"{head} dispatch; use the package-level kernels or "
                f"active()"))

    def visit_Import(self, node: ast.Import) -> None:
        if self.index is None or self.module is None:
            return
        for alias in node.names:
            self._check_target(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.index is None or self.module is None:
            return
        base = node.module or ""
        if node.level:
            parts = self.module.module.split(".")
            if node.level > len(parts):
                return
            prefix = ".".join(parts[:len(parts) - node.level])
            base = f"{prefix}.{base}" if base else prefix
        if base:
            self._check_target(node, base)
        for alias in node.names:
            if base:
                self._check_target(node, f"{base}.{alias.name}")
