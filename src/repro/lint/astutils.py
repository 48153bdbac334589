"""Small AST helpers shared by the summaries and rule modules."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

#: Calls that convert to integer; a float literal inside one of these
#: is an explicit, rounded conversion rather than a unit leak.  Any
#: *other* call is treated as opaque too — its return type is unknown
#: statically, and a float literal among its arguments (``mhz(362.5)``)
#: says nothing about the value the call produces.
INT_COERCIONS = ("int", "round", "floor", "ceil", "us", "ms", "ns",
                 "ceil_div")


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a Name or Attribute (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def name_has_suffix(node: ast.AST, suffixes: Tuple[str, ...]) -> bool:
    name = terminal_name(node)
    return name is not None and name.lower().endswith(suffixes)


def is_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def iter_float_leaks(node: ast.AST) -> Iterator[ast.AST]:
    """Float literals / true divisions in ``node``, outside calls.

    Call subtrees are pruned: ``int(cycles * 1.5)`` is an explicit
    rounding decision and ``clock.duration_of(cycles)`` returns whatever
    it returns — but a bare ``cycles * 1.5`` reaching a picosecond
    parameter silently truncates or (worse) stays float and breaks
    heap-order totality.
    """
    if isinstance(node, ast.Call):
        return
    if is_float_literal(node):
        yield node
        return
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        yield node
        return
    for child in ast.iter_child_nodes(node):
        yield from iter_float_leaks(child)


def is_int_annotation(node: ast.AST) -> bool:
    """True for ``int``, ``Optional[int]``, ``int | None`` (either order)."""
    if isinstance(node, ast.Name):
        return node.id == "int"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.replace(" ", "") in ("int", "Optional[int]",
                                               "int|None", "None|int")
    if isinstance(node, ast.Subscript):
        base = terminal_name(node.value)
        if base == "Optional":
            return is_int_annotation(node.slice)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = (node.left, node.right)
        has_none = any(isinstance(s, ast.Constant) and s.value is None
                       for s in sides)
        has_int = any(is_int_annotation(s) for s in sides)
        return has_none and has_int
    return False
