"""Process-safety rules for the sweep engine (P4xx).

``repro.sweep`` promises byte-identical serial/parallel results; that
only holds if work shipped to a ``ProcessPoolExecutor`` is hermetic.
These rules police the three ways the promise breaks:

* a worker function reading mutable module globals (each process gets
  its own copy — silently divergent state, not shared state),
* order-unstable or unpicklable objects inside ``RunSpec`` /
  ``SweepGrid`` definitions (grid expansion order becomes
  interpreter-dependent, or dispatch dies at pickle time),
* unordered iteration feeding cache-key or digest construction
  (the same logical inputs hash differently across runs).
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from repro.lint.registry import ProjectChecker, register
from repro.lint.astutils import dotted_name, terminal_name

#: Executor method names that ship a callable to worker processes.
DISPATCH_METHODS = ("map", "submit")

#: Receiver name fragments marking an executor object.
EXECUTOR_HINTS = ("pool", "executor")

#: Grid/spec constructors whose fields must be stable and picklable.
GRID_CONSTRUCTORS = ("RunSpec", "SweepGrid", "PayloadSpec")

#: Call names that begin a digest or cache-key computation.
DIGEST_CALLS = ("sha256", "sha1", "sha224", "sha384", "sha512", "md5",
                "blake2b", "blake2s", "artifact_key")

#: Wrappers that impose a deterministic order on any iterable.
ORDERING_CALLS = ("sorted", "min", "max")


def _is_dispatch(node: ast.Call) -> Optional[ast.AST]:
    """The worker argument of ``pool.map(worker, ...)``, or ``None``."""
    func = node.func
    if not isinstance(func, ast.Attribute) \
            or func.attr not in DISPATCH_METHODS or not node.args:
        return None
    receiver = terminal_name(func.value)
    if receiver is None \
            or not any(hint in receiver.lower() for hint in EXECUTOR_HINTS):
        return None
    return node.args[0]


def _partial_target(node: ast.AST) -> ast.AST:
    """Unwrap ``functools.partial(f, ...)`` to ``f``."""
    if isinstance(node, ast.Call) \
            and terminal_name(node.func) == "partial" and node.args:
        return node.args[0]
    return node


@register
class WorkerCapturesMutableGlobalRule(ProjectChecker):
    """P401 — pool workers must not read mutable module globals.

    ``fork`` copies, ``spawn`` re-imports: either way a worker's view
    of a mutable global diverges from the parent's the moment anyone
    mutates it, and results stop being a function of the spec.  Pass
    state through the spec (or make the global an immutable tuple).
    """

    rule_id = "P401"
    rule_name = "worker-captures-mutable-global"
    rationale = ("a worker process sees a private copy of mutable "
                 "module state; results silently depend on fork "
                 "timing instead of the run spec")

    def visit_Call(self, node: ast.Call) -> None:
        worker = _is_dispatch(node)
        if worker is not None:
            self._check_worker(node, _partial_target(worker))
        self.generic_visit(node)

    def _check_worker(self, site: ast.Call, worker: ast.AST) -> None:
        if isinstance(worker, ast.Lambda):
            self.report(site, "lambda passed to a process pool is "
                              "unpicklable; use a module-level "
                              "function")
            return
        if self.index is None:
            return
        summary = self.index.resolve(self.module, dotted_name(worker))
        if summary is None:
            return
        if summary.is_nested:
            self.report(site, f"worker {summary.name}() is a nested "
                              f"function; process pools need "
                              f"module-level callables")
            return
        owner = self._module_of(summary.qualname)
        if owner is None:
            return
        captured = sorted(set(summary.global_reads)
                          & set(owner.mutable_globals))
        for name in captured:
            self.report(site, f"worker {summary.name}() reads mutable "
                              f"module global {name!r}; pass it "
                              f"through the spec or freeze it")

    def _module_of(self, qualname: str):
        best = None
        for module_name, summary in self.index.modules.items():
            if qualname.startswith(module_name + ".") \
                    and (best is None
                         or len(module_name) > len(best.module)):
                best = summary
        return best


@register
class UnstableGridObjectRule(ProjectChecker):
    """P402 — grid/spec fields must be stable, picklable values.

    A ``set`` inside ``SweepGrid(controllers=...)`` makes expansion
    order an interpreter detail; a lambda or generator dies at
    pickle time inside the first worker.  ``sorted(...)`` wrapping
    restores a defined order and is always accepted.
    """

    rule_id = "P402"
    rule_name = "unstable-grid-object"
    rationale = ("sweep grids are expanded, sorted, and pickled; "
                 "sets, lambdas and generators break ordering or "
                 "dispatch")

    def visit_Call(self, node: ast.Call) -> None:
        if terminal_name(node.func) in GRID_CONSTRUCTORS:
            for arg in node.args:
                self._scan(node, arg, top=True)
            for keyword in node.keywords:
                self._scan(node, keyword.value, top=True)
        self.generic_visit(node)

    def _scan(self, site: ast.Call, node: ast.AST, top: bool = False
              ) -> None:
        if isinstance(node, ast.Call):
            callee = terminal_name(node.func)
            if callee in ORDERING_CALLS:
                return  # sorted(...) restores a defined order
            for arg in node.args:
                self._scan(site, arg)
            for keyword in node.keywords:
                self._scan(site, keyword.value)
            return
        if isinstance(node, (ast.Set, ast.SetComp)):
            self.report(node, "set inside a grid/spec field has no "
                              "defined order; use a sorted tuple")
            return
        if isinstance(node, ast.DictComp):
            self.report(node, "dict comprehension inside a grid/spec "
                              "field; use a sorted tuple of pairs")
            return
        if isinstance(node, ast.Lambda):
            self.report(node, "lambda inside a grid/spec field is "
                              "unpicklable; use a named function")
            return
        if isinstance(node, ast.GeneratorExp) and top:
            self.report(node, "bare generator bound to a grid/spec "
                              "field is single-use and unpicklable; "
                              "materialize it with tuple(...)")
            return
        for child in ast.iter_child_nodes(node):
            self._scan(site, child)


@register
class UnorderedDigestInputRule(ProjectChecker):
    """P403 — no unordered iteration inside key/digest construction.

    Within any function that computes a digest or cache key, dict
    views and set-typed values must pass through ``sorted(...)``
    before they contribute bytes — otherwise the same logical inputs
    produce different keys across runs and machines, and the artifact
    cache silently stops deduplicating (or worse, CI hashes drift).
    """

    rule_id = "P403"
    rule_name = "unordered-digest-input"
    rationale = ("hashing iteration-order-dependent bytes makes "
                 "cache keys and digests unstable across runs")

    _DICT_VIEWS = ("items", "keys", "values")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._computes_digest(node):
            for view in self._unsorted_views(node):
                self.report(view, f"dict .{view.func.attr}() iterated "
                                  f"inside digest/key construction "
                                  f"without sorted(); order is not "
                                  f"part of the value")
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _computes_digest(self, node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                name = terminal_name(child.func)
                if name in DIGEST_CALLS:
                    return True
        return False

    def _unsorted_views(self, node: ast.AST):
        sorted_views: Set[int] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Call) \
                    and terminal_name(child.func) in ORDERING_CALLS:
                for grand in ast.walk(child):
                    sorted_views.add(id(grand))
        for child in ast.walk(node):
            if id(child) in sorted_views:
                continue
            if isinstance(child, (ast.For, ast.comprehension)):
                candidates = [child.iter]
            else:
                continue
            for candidate in candidates:
                if isinstance(candidate, ast.Call) \
                        and isinstance(candidate.func, ast.Attribute) \
                        and candidate.func.attr in self._DICT_VIEWS \
                        and not candidate.args:
                    yield candidate
