"""Rule registry and checker base class.

Every rule is an :class:`ast.NodeVisitor` subclass registered under a
stable rule id (``U001`` ...).  The registry is what the CLI's
``--select`` filter, the reporters, and the documentation generator
iterate — rules are pluggable: registering a new checker module is all
it takes to extend the analyzer.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from pathlib import PurePosixPath
from typing import Dict, List, Tuple, Type

from repro.lint.violations import Violation


class Checker(ast.NodeVisitor):
    """Base class for one lint rule.

    Subclasses set the class attributes and call :meth:`report` from
    their ``visit_*`` methods.  ``exempt_paths`` holds fnmatch globs
    (posix-style, matched against the path suffix) naming files where
    the rule does not apply — e.g. the event kernel itself is allowed
    to fire event handles.
    """

    rule_id: str = ""
    rule_name: str = ""
    rationale: str = ""
    exempt_paths: Tuple[str, ...] = ()
    requires_index = False

    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[Violation] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append(Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        ))

    @classmethod
    def applies_to(cls, path: str) -> bool:
        posix = PurePosixPath(path).as_posix()
        return not any(fnmatch(posix, pattern) for pattern in cls.exempt_paths)


class ProjectChecker(Checker):
    """Base class for rules that need the whole-program index.

    The analyzer instantiates these with the :class:`ProjectIndex`
    built in pass 1 plus this file's own :class:`ModuleSummary`, so a
    rule can compare this module with its siblings.
    """

    requires_index = True

    def __init__(self, path: str, index=None, module=None) -> None:
        super().__init__(path)
        self.index = index
        self.module = module


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.rule_id or not cls.rule_name:
        raise ValueError(f"{cls.__name__} must define rule_id and rule_name")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> Dict[str, Type[Checker]]:
    """The registered rules, keyed and iterated in rule-id order."""
    _load_builtin_rules()
    return dict(sorted(_REGISTRY.items()))


def get_rule(rule_id: str) -> Type[Checker]:
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown lint rule: {rule_id}") from None


def _load_builtin_rules() -> None:
    # Import for registration side effects; deferred so that custom
    # checkers can be registered before or after the built-ins load.
    import repro.lint.rules  # noqa: F401
