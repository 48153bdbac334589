"""Cache-key purity rules (C5xx).

Everything hashed into a SHA-256 artifact key must be *canonical*
(``json.dumps(..., sort_keys=True)``, never ``str()``/``repr()``/
f-strings of live objects) and *versioned* (a format-version entry in
the params dict), or cached artifacts are either missed (key drifts
for equal inputs) or misread (a layout change lands on an old key).
These rules track hash inputs locally — through intermediate
variables — inside each function.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.registry import ProjectChecker, register
from repro.lint.astutils import dotted_name, terminal_name

#: Constructors of hashlib digest objects, plus the project's own
#: canonical key helper.
HASH_CONSTRUCTORS = ("sha256", "sha1", "sha224", "sha384", "sha512",
                     "md5", "blake2b", "blake2s")

KEY_HELPERS = ("artifact_key",)

#: Substring a params-dict key must contain to count as a version pin.
VERSION_MARKER = "version"


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
    digest_vars: Set[str] = set()
    for child in _scope_nodes(node):
        if isinstance(child, ast.Assign) \
                and isinstance(child.value, ast.Call) \
                and terminal_name(child.value.func) in HASH_CONSTRUCTORS:
            for target in child.targets:
                if isinstance(target, ast.Name):
                    digest_vars.add(target.id)
    for child in _scope_nodes(node):
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


def _has_sort_keys(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "sort_keys" \
                and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return False


def _is_json_dumps(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) \
        and dotted_name(node.func) in ("json.dumps", "dumps")


class _FunctionRule(ProjectChecker):
    """Shared per-function dispatch for the C5xx checks."""

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.check_function(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Module(self, node: ast.Module) -> None:
        self.check_function(node)
        self.generic_visit(node)

    def check_function(self, node: ast.AST) -> None:
        raise NotImplementedError


@register
class UnsortedJsonKeyRule(_FunctionRule):
    """C501 — JSON hashed into a key must use ``sort_keys=True``.

    ``json.dumps`` without ``sort_keys`` serializes dict insertion
    order; two call paths building the same params in different
    order hash to different keys and the cache forks.
    """

    rule_id = "C501"
    rule_name = "unsorted-json-key"
    rationale = ("hashing insertion-ordered JSON forks the cache: "
                 "equal params, different key")

    def check_function(self, node: ast.AST) -> None:
        unsorted_vars = self._unsorted_dump_vars(node)
        for raw in _hash_inputs(node):
            value = _strip_encode(raw)
            if _is_json_dumps(value) and not _has_sort_keys(value):
                self.report(value, "json.dumps(...) hashed without "
                                   "sort_keys=True; key depends on "
                                   "dict insertion order")
            elif isinstance(value, ast.Name) \
                    and value.id in unsorted_vars:
                self.report(value, f"{value.id!r} holds json.dumps "
                                   f"output without sort_keys=True "
                                   f"and is hashed; key depends on "
                                   f"dict insertion order")

    @staticmethod
    def _unsorted_dump_vars(node: ast.AST) -> Set[str]:
        dumps: Set[str] = set()
        for child in _scope_nodes(node):
            if not isinstance(child, ast.Assign):
                continue
            value = _strip_encode(child.value)
            if _is_json_dumps(value) and not _has_sort_keys(value):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        dumps.add(target.id)
        return dumps


@register
class ReprDigestInputRule(_FunctionRule):
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


@register
class UnversionedCacheKeyRule(_FunctionRule):
    """C503 — params dicts fed to ``artifact_key`` carry a version.

    A key without a format-version entry keeps resolving to blobs
    written by older layouts; bumping the version is what orphans
    stale artifacts instead of misreading them.
    """

    rule_id = "C503"
    rule_name = "unversioned-cache-key"
    rationale = ("cache keys without a format version resolve to "
                 "stale blobs after any layout change")

    def check_function(self, node: ast.AST) -> None:
        dict_keys = self._literal_dict_keys(node)
        for child in _scope_nodes(node):
            if not isinstance(child, ast.Call) \
                    or terminal_name(child.func) not in KEY_HELPERS \
                    or not child.args:
                continue
            arg = child.args[0]
            keys: Optional[List[str]] = None
            if isinstance(arg, ast.Dict):
                keys = self._keys_of(arg)
            elif isinstance(arg, ast.Name):
                keys = dict_keys.get(arg.id)
            if keys is None:
                continue
            if not any(VERSION_MARKER in key.lower() for key in keys):
                self.report(child, "params hashed into a cache key "
                                   "carry no *version* entry; layout "
                                   "changes will be misread, not "
                                   "orphaned")

    def _literal_dict_keys(self, node: ast.AST
                           ) -> Dict[str, List[str]]:
        """Vars assigned a dict literal, with later ``d[k] = v`` adds.

        A var assigned from anything non-literal is untracked (and
        so never reported) — the rule only judges dicts it can see
        completely.
        """
        keys: Dict[str, List[str]] = {}
        for child in _scope_nodes(node):
            if isinstance(child, ast.Assign) \
                    and len(child.targets) == 1 \
                    and isinstance(child.targets[0], ast.Name):
                name = child.targets[0].id
                if isinstance(child.value, ast.Dict):
                    keys[name] = self._keys_of(child.value)
                else:
                    keys.pop(name, None)
            elif isinstance(child, ast.Assign) \
                    and len(child.targets) == 1 \
                    and isinstance(child.targets[0], ast.Subscript):
                target = child.targets[0]
                base = target.value
                index = target.slice
                if isinstance(base, ast.Name) and base.id in keys \
                        and isinstance(index, ast.Constant) \
                        and isinstance(index.value, str):
                    keys[base.id].append(index.value)
        return keys

    @staticmethod
    def _keys_of(node: ast.Dict) -> List[str]:
        keys: List[str] = []
        for key in node.keys:
            if isinstance(key, ast.Constant) \
                    and isinstance(key.value, str):
                keys.append(key.value)
        return keys
