"""Cache-key purity rule (C502).

Everything hashed into a SHA-256 key or digest must be *canonical*
(``json.dumps(..., sort_keys=True)``, never ``str()``/``repr()``/
f-strings of live objects), or cached entries are missed and pinned
digests drift: the key changes for equal inputs.  The rule tracks hash inputs locally —
through digest variables — inside each function, and follows an input
back through ``str`` method chains (``repr(x).lower().encode()``) and
through locals bound exactly once in the same scope (``text =
repr(x)`` hashed later).  A ``repr`` passed through any other call,
such as a regex substitution, is not followed.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Dict, Iterator, List, Optional, Set

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


def _hash_inputs(nodes: List[ast.AST]) -> Iterator[ast.AST]:
    """Expressions that contribute bytes to a digest in one scope.

    Yields the arguments of ``hashlib.sha256(...)`` constructor calls
    and of ``<digest>.update(...)`` calls where the receiver was
    assigned from a hashlib constructor in the same scope (``nodes``,
    from :func:`_scope_nodes`).
    """
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


#: Methods that return a transformed copy of their ``str`` receiver
#: (or its bytes): hashing ``repr(x).lower()`` still hashes the
#: formatting of ``repr(x)``.
STR_METHODS = frozenset({
    "encode", "lower", "upper", "casefold", "strip", "lstrip", "rstrip",
    "replace", "title", "capitalize", "swapcase", "expandtabs", "center",
    "ljust", "rjust", "zfill", "removeprefix", "removesuffix",
    "translate"})


def _single_assignments(nodes: List[ast.AST]) -> Dict[str, ast.AST]:
    """Names bound exactly once in the scope, by a plain ``name = value``.

    Every other binding form (parameters, augmented or unpacking
    assignment, loop and ``with`` targets, imports, ``global``) counts
    against the name, so a local that can hold two values is never
    followed.
    """
    bindings: Counter = Counter()
    values: Dict[str, ast.AST] = {}
    for child in nodes:
        if isinstance(child, ast.Name) \
                and not isinstance(child.ctx, ast.Load):
            bindings[child.id] += 1
        elif isinstance(child, ast.arg):
            bindings[child.arg] += 1
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            bindings.update({name: 2 for name in child.names})
        elif isinstance(child, ast.alias):
            bindings[(child.asname or child.name).split(".")[0]] += 1
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
            bindings[child.name] += 1
        elif isinstance(child, ast.ExceptHandler) and child.name:
            bindings[child.name] += 1
        if isinstance(child, ast.Assign) and len(child.targets) == 1 \
                and isinstance(child.targets[0], ast.Name):
            values[child.targets[0].id] = child.value
    return {name: value for name, value in values.items()
            if bindings[name] == 1}


def _hashed_value(node: ast.AST,
                  locals_: Dict[str, ast.AST]) -> ast.AST:
    """What a hash input's bytes come from.

    Steps from ``x.encode()``, ``x.lower()`` and the like to ``x``,
    and from a single-assignment local to its value, until neither
    applies.
    """
    seen: Set[str] = set()
    while True:
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in STR_METHODS:
            node = node.func.value
        elif isinstance(node, ast.Name) and node.id in locals_ \
                and node.id not in seen:
            seen.add(node.id)
            node = locals_[node.id]
        else:
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
        nodes = list(_scope_nodes(node))
        locals_: Optional[Dict[str, ast.AST]] = None
        reported: Set[int] = set()
        for raw in _hash_inputs(nodes):
            if locals_ is None:
                # Bindings are collected only for scopes that hash.
                locals_ = _single_assignments(nodes)
            value = _hashed_value(raw, locals_)
            if id(value) in reported:
                continue  # one local hashed at several sites
            if isinstance(value, ast.Call) \
                    and terminal_name(value.func) in ("str", "repr") \
                    and value.args \
                    and not isinstance(value.args[0], ast.Constant):
                reported.add(id(value))
                self.report(value, f"{terminal_name(value.func)}() of "
                                   f"a live object hashed into a "
                                   f"digest; serialize canonically "
                                   f"(sorted JSON) instead")
            elif isinstance(value, ast.JoinedStr):
                reported.add(id(value))
                self.report(value, "f-string hashed into a digest; "
                                   "its formatting is not canonical "
                                   "— serialize canonically instead")
