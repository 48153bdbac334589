"""Determinism rules (D1xx).

Every experiment in the repository must be bit-reproducible (the
golden-file test hashes generator output); these rules ban the usual
sources of run-to-run drift: wall clocks, shared/unseeded RNGs, and
hash-order iteration.
"""

from __future__ import annotations

import ast

from repro.lint.registry import Checker, register
from repro.lint.astutils import dotted_name, terminal_name

#: Dotted call names that read the wall clock or OS entropy.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "date.today",
})

#: Bare names (``from time import perf_counter``) that are unambiguous
#: clock reads.  A bare ``time()`` is not flagged — too generic.
WALL_CLOCK_BARE = frozenset({
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "time_ns", "utcnow",
})

#: ``random`` module-level functions that use the interpreter-global
#: RNG — shared state whose draw order depends on import/call order
#: across the whole process.
GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "getrandbits",
    "randbytes", "seed",
})

#: Entropy sources that are nondeterministic by construction.
ENTROPY_CALLS = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbelow",
    "secrets.choice", "random.SystemRandom",
})


@register
class WallClockRule(Checker):
    """D101 — no wall-clock reads in simulation code.

    Simulated time is ``Simulator.now`` (integer picoseconds); reading
    the host clock makes results vary with machine load and breaks the
    golden-file hash contract.
    """

    rule_id = "D101"
    rule_name = "wall-clock"
    rationale = ("simulation time is Simulator.now; host-clock reads make "
                 "results machine-dependent")
    #: The one sanctioned wall-clock module: host profiling lives in
    #: ``repro.obs.profiling`` and records only ``wall.*`` metrics,
    #: which determinism comparisons exclude by construction.
    exempt_paths = ("*/repro/obs/profiling.py", "repro/obs/profiling.py")

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name)
                and node.func.id in WALL_CLOCK_BARE):
            self.report(node, f"wall-clock read {node.func.id}(); use "
                              f"Simulator.now for simulated time")
        else:
            dotted = dotted_name(node.func)
            if dotted is not None:
                tail = ".".join(dotted.split(".")[-2:])
                if dotted in WALL_CLOCK_CALLS or tail in WALL_CLOCK_CALLS:
                    self.report(node, f"wall-clock read {dotted}(); use "
                                      f"Simulator.now for simulated time")
        self.generic_visit(node)


#: ``time``-module functions that read a host clock.  ``sleep`` and
#: the struct/formatting helpers are deliberately absent.
TIME_CLOCK_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns",
})


@register
class ClockImportRule(Checker):
    """D104 — clock callables may only be *imported* in obs/profiling.

    D101 flags wall-clock reads at the call site, but call-site
    analysis cannot see through a rebinding import: ``from time import
    perf_counter as tick`` (or ``import time as t``) makes every later
    ``tick()`` invisible to it.  This rule closes that hole at the
    import statement.  ``repro.obs.profiling`` — the one module whose
    job is host timing — is exempt; everything else must route wall
    measurements through it.
    """

    rule_id = "D104"
    rule_name = "clock-import"
    rationale = ("importing clock callables rebinds them past D101's "
                 "call-site analysis; wall timing belongs in "
                 "repro.obs.profiling")
    exempt_paths = ("*/repro/obs/profiling.py", "repro/obs/profiling.py")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in TIME_CLOCK_FNS:
                    bound = alias.asname or alias.name
                    self.report(node, f"from time import {alias.name} "
                                      f"binds a wall clock to "
                                      f"{bound!r}; use "
                                      f"repro.obs.profiling instead")
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time" and alias.asname is not None:
                self.report(node, f"import time as {alias.asname} hides "
                                  f"clock reads from call-site "
                                  f"analysis; use repro.obs.profiling "
                                  f"instead")
        self.generic_visit(node)


@register
class UnseededRandomRule(Checker):
    """D102 — randomness must come from an explicitly seeded generator.

    The global ``random`` module functions share one process-wide RNG:
    any unrelated import that draws from it shifts every later draw.
    Models must create ``random.Random(seed)`` instances (see
    ``BitstreamSpec.seed``) so each stream is independent and pinned.
    """

    rule_id = "D102"
    rule_name = "unseeded-random"
    rationale = ("global/unseeded RNGs and OS entropy break bit-exact "
                 "reproduction; use random.Random(seed)")

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted in ENTROPY_CALLS:
            self.report(node, f"nondeterministic entropy source "
                              f"{dotted}(); use random.Random(seed)")
        elif dotted == "random.Random" and not node.args:
            self.report(node, "random.Random() without a seed argument; "
                              "pass an explicit seed")
        elif dotted is not None and "." in dotted:
            head, _, attr = dotted.rpartition(".")
            if head == "random" and attr in GLOBAL_RANDOM_FNS:
                self.report(node, f"call to global-RNG function "
                                  f"{dotted}(); draw from a local "
                                  f"random.Random(seed) instance")
        self.generic_visit(node)


@register
class UnorderedIterationRule(Checker):
    """D103 — no iteration over sets (hash order leaks into results).

    Set iteration order depends on insertion history and interpreter
    build; anything derived from it (schedules, generated bytes, report
    rows) stops being reproducible.  Wrap the set in ``sorted()``.
    """

    rule_id = "D103"
    rule_name = "unordered-iteration"
    rationale = ("set iteration order is interpreter-dependent; sorted() "
                 "makes derived results stable")

    #: Calls that materialize an iterable in arbitrary set order.
    _ORDER_SENSITIVE_WRAPPERS = ("list", "tuple", "iter", "enumerate")

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter, "for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in node.generators:
            self._check_iterable(generator.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        name = terminal_name(node.func)
        if (name in self._ORDER_SENSITIVE_WRAPPERS and len(node.args) == 1
                and self._is_set_expression(node.args[0])):
            self.report(node, f"{name}() over a set materializes hash "
                              f"order; use sorted() instead")
        self.generic_visit(node)

    def _check_iterable(self, iterable: ast.AST, where: str) -> None:
        if self._is_set_expression(iterable):
            self.report(iterable, f"{where} iterates a set in hash order; "
                                  f"wrap it in sorted()")

    @staticmethod
    def _is_set_expression(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return terminal_name(node.func) in ("set", "frozenset")
        return False
