"""Digest-input ordering rule (P403).

The determinism sanitizer's S903 stream chain, the serve request-stream
and SLO-report digests, and the lint cache's file keys and project
signature all hash their inputs and promise equal digests for equal
inputs.  This rule polices the one way a hash input silently loses
that promise: unordered iteration feeding digest construction (the
same logical inputs hash differently across runs).
"""

from __future__ import annotations

import ast
from typing import Set

from repro.lint.registry import Checker, register
from repro.lint.astutils import terminal_name

#: Call names that begin a digest computation.
DIGEST_CALLS = ("sha256", "sha1", "sha224", "sha384", "sha512", "md5",
                "blake2b", "blake2s")

#: Wrappers that impose a deterministic order on any iterable.
ORDERING_CALLS = ("sorted", "min", "max")


@register
class UnorderedDigestInputRule(Checker):
    """P403 — no unordered iteration inside key/digest construction.

    Within any function that computes a digest, dict views and
    set-typed values must pass through ``sorted(...)`` before they
    contribute bytes — otherwise the same logical inputs produce
    different digests across runs and machines: the lint cache
    silently stops hitting, and pinned digests drift.
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
