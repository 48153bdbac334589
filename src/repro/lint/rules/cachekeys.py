"""Cache-key purity rule (C502).

Everything hashed into a SHA-256 artifact key must be *canonical*
(``json.dumps(..., sort_keys=True)``, never ``str()``/``repr()``/
f-strings of live objects), or cached artifacts are missed: the key
drifts for equal inputs.  The rule tracks hash inputs locally —
through digest variables — inside each function.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.registry import Checker, register
from repro.lint.astutils import terminal_name

#: Constructors of hashlib digest objects.
HASH_CONSTRUCTORS = ("sha256", "sha1", "sha224", "sha384", "sha512",
                     "md5", "blake2b", "blake2s")


def _scope_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Descendants of ``node`` that belong to its own scope.

    Stops at nested function boundaries (their bodies are checked by
    their own ``check_function`` pass), so no node is judged twice.
    Class bodies are *not* boundaries: statements there execute in the
    enclosing scope's pass, while methods get their own.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(child))


def _hash_inputs(node: ast.AST) -> Iterator[ast.AST]:
    """Expressions that contribute bytes to a digest inside ``node``.

    Yields the arguments of ``hashlib.sha256(...)`` constructor calls
    and of ``<digest>.update(...)`` calls where the receiver was
    assigned from a hashlib constructor in the same scope.
    """
    nodes = list(_scope_nodes(node))
    digest_vars: Set[str] = set()
    for child in nodes:
        if isinstance(child, ast.Assign) \
                and isinstance(child.value, ast.Call) \
                and terminal_name(child.value.func) in HASH_CONSTRUCTORS:
            for target in child.targets:
                if isinstance(target, ast.Name):
                    digest_vars.add(target.id)
    for child in nodes:
        if not isinstance(child, ast.Call):
            continue
        name = terminal_name(child.func)
        if name in HASH_CONSTRUCTORS:
            yield from child.args
        elif (isinstance(child.func, ast.Attribute)
                and child.func.attr == "update"
                and terminal_name(child.func.value) in digest_vars):
            yield from child.args


def _strip_encode(node: ast.AST) -> ast.AST:
    """``x.encode(...)`` contributes ``x``'s bytes."""
    if isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "encode":
        return node.func.value
    return node


@register
class ReprDigestInputRule(Checker):
    """C502 — never hash ``str()``/``repr()``/f-strings of objects.

    ``repr`` output is an implementation detail (float formatting,
    dict order, object addresses); a cache key built from it is not a
    function of the value.  Serialize canonically instead.
    """

    rule_id = "C502"
    rule_name = "repr-digest-input"
    rationale = ("str()/repr()/f-string output is not canonical; "
                 "keys built from it drift across versions and "
                 "platforms")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.check_function(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Module(self, node: ast.Module) -> None:
        self.check_function(node)
        self.generic_visit(node)

    def check_function(self, node: ast.AST) -> None:
        for raw in _hash_inputs(node):
            value = _strip_encode(raw)
            if isinstance(value, ast.Call) \
                    and terminal_name(value.func) in ("str", "repr") \
                    and value.args \
                    and not isinstance(value.args[0], ast.Constant):
                self.report(value, f"{terminal_name(value.func)}() of "
                                   f"a live object hashed into a "
                                   f"digest; serialize canonically "
                                   f"(sorted JSON) instead")
            elif isinstance(value, ast.JoinedStr):
                self.report(value, "f-string hashed into a digest; "
                                   "its formatting is not canonical "
                                   "— serialize canonically instead")
