"""Whole-program rules against the fixture packages.

The single-file fixtures prove each rule in isolation; these packages
prove the *project index*: violations here are only visible when the
analyzer resolves calls and globals across module boundaries.
"""

from pathlib import Path

from repro.lint import lint_file, lint_files

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _pkg_files(name):
    return sorted((FIXTURES / name).rglob("*.py"))


def _by_rule(violations):
    table = {}
    for violation in violations:
        table.setdefault(violation.rule_id, []).append(violation)
    return table


def test_cross_module_finding_needs_the_index():
    # The same dispatcher linted alone resolves nothing: the violation
    # only exists with the worker module's summary in the index.
    alone = lint_file(FIXTURES / "unsafe_sweep_pkg" / "runner.py")
    assert not any(v.rule_id == "P401" for v in alone)


def test_worker_safety_across_modules():
    found = _by_rule(lint_files(_pkg_files("unsafe_sweep_pkg")))
    [p401] = found["P401"]
    assert p401.path.endswith("runner.py")
    assert "REGISTRY" in p401.message


def test_order_unstable_cache_key_package():
    found = _by_rule(lint_files(_pkg_files("keydrift_pkg")))
    assert [v.line for v in found["P403"]] == [8]
    assert [v.line for v in found["C502"]] == [10]


def test_project_index_resolution_and_signature():
    import ast

    from repro.lint.project import ProjectIndex, module_name_for
    from repro.lint.summaries import summarize_module

    summaries = []
    for path in _pkg_files("unsafe_sweep_pkg"):
        tree = ast.parse(path.read_text())
        summaries.append(
            summarize_module(tree, module_name_for(str(path)), str(path)))
    index = ProjectIndex(summaries)
    runner = next(s for s in summaries
                  if s.module == "unsafe_sweep_pkg.runner")

    summary = index.resolve(runner, "tally")
    assert summary is not None
    assert summary.qualname == "unsafe_sweep_pkg.state.tally"
    assert summary.params == ("spec",)
    assert summary.global_reads == ("REGISTRY",)
    owner = index.modules["unsafe_sweep_pkg.state"]
    assert owner.mutable_globals == ("REGISTRY",)

    # The signature is a pure function of module *summaries*, not of
    # file order.
    shuffled = ProjectIndex(list(reversed(summaries)))
    assert index.signature() == shuffled.signature()


# -- backend contract rules (B8xx) ------------------------------------

def _drift_files():
    return _pkg_files("accel_drift_pkg") + [FIXTURES / "b804_consumer.py"]


def test_backend_contract_rules_flag_every_seed():
    found = _by_rule(lint_files(_drift_files()))
    b801 = {(v.path.rsplit("/", 1)[-1], v.line) for v in found["B801"]}
    assert b801 == {("pure.py", 4), ("pure.py", 8),
                    ("native_backend.py", 13)}
    messages = " | ".join(v.message for v in found["B801"])
    assert "signature drift" in messages
    assert "no counterpart" in messages
    assert "no pure reference" in messages

    [b802] = found["B802"]
    assert b802.path.endswith("pure.py") and "crc_fold" in b802.message

    [b803] = found["B803"]
    assert b803.path.endswith("__init__.py")
    assert "scan_runs" in b803.message
    assert b803.fix is not None  # mechanically safe: insert record()

    assert [v.line for v in found["B804"]] == [3, 4]
    assert all(v.path.endswith("b804_consumer.py")
               for v in found["B804"])


def test_backend_package_detection_is_generic():
    import ast

    from repro.lint.project import ProjectIndex, module_name_for
    from repro.lint.rules.backend import backend_package_of
    from repro.lint.summaries import summarize_module

    index = ProjectIndex([
        summarize_module(ast.parse(path.read_text()),
                         module_name_for(str(path)), str(path))
        for path in _pkg_files("accel_drift_pkg")])
    for module in ("accel_drift_pkg", "accel_drift_pkg.pure",
                   "accel_drift_pkg.native_backend"):
        assert backend_package_of(index, module) == "accel_drift_pkg"
    assert backend_package_of(index, "somewhere.else") is None


def test_imports_inside_the_backend_package_are_sanctioned():
    found = _by_rule(lint_files(_pkg_files("accel_drift_pkg")))
    # __init__.py imports its own pure submodule — that is the
    # dispatch layer doing its job, not a bypass.
    assert "B804" not in found


# -- the shipped package shape ------------------------------------------
#
# three_backend_pkg mirrors the real repro.accel shape — dispatch
# __init__, pure reference, cffi-style native backend — with every
# seeded violation living in the native implementation, so the B rules
# are proven against the package layout that actually ships.

def _three_backend_files():
    return _pkg_files("three_backend_pkg") + \
        [FIXTURES / "three_backend_consumer.py"]


def test_native_backend_package_is_recognised_without_numpy(tmp_path):
    # Recognition must not hinge on a numpy_backend submodule: a
    # package carrying only pure + native_backend is still a backend
    # package, so drift inside it fires.
    pkg = tmp_path / "solo_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "pure.py").write_text("def k(a):\n    return a\n")
    (pkg / "native_backend.py").write_text(
        "def k(a, b):\n    return a\n")
    found = _by_rule(lint_files(sorted(pkg.rglob("*.py"))))
    [b801] = found["B801"]
    assert b801.path.endswith("pure.py")
    assert "native_backend" in b801.message


def test_three_backend_drift_flags_every_seed():
    found = _by_rule(lint_files(_three_backend_files()))

    # All three B801 shapes, every one seeded in the native impl:
    # signature drift, missing counterpart, no pure reference.
    b801 = {(v.path.rsplit("/", 1)[-1], v.line) for v in found["B801"]}
    assert b801 == {("pure.py", 4), ("pure.py", 16),
                    ("native_backend.py", 17)}
    messages = " | ".join(v.message for v in found["B801"])
    assert "three_backend_pkg.native_backend" in messages
    assert "signature drift" in messages
    assert "no counterpart" in messages
    assert "no pure reference" in messages

    [b802] = found["B802"]
    assert b802.path.endswith("pure.py") and "crc_fold" in b802.message

    [b803] = found["B803"]
    assert b803.path.endswith("__init__.py")
    assert "scan_runs" in b803.message

    # Bypass imports of either backend module are flagged.
    assert [v.line for v in found["B804"]] == [3, 4, 5]
    assert all(v.path.endswith("three_backend_consumer.py")
               for v in found["B804"])
    bypassed = " | ".join(v.message for v in found["B804"])
    assert "three_backend_pkg.native_backend" in bypassed
    assert "three_backend_pkg.pure" in bypassed


def test_real_accel_package_is_backend_clean():
    # The shipped two-backend package must satisfy its own contract:
    # mirrored signatures (B801), one dispatch per kernel (B802),
    # record() on every dispatch (B803), no bypass imports (B804).
    src = Path(__file__).resolve().parents[2] / "src" / "repro" / "accel"
    found = _by_rule(lint_files(sorted(src.rglob("*.py"))))
    assert not any(rule.startswith("B8") for rule in found), found


def test_retired_numpy_backend_module_is_not_an_impl(tmp_path):
    # numpy_backend is no longer a registered implementation: a module
    # under that name is plain package code, so its drift (an extra
    # parameter, a kernel with no pure reference) is not reported and
    # only the native signature drift is.
    pkg = tmp_path / "mixed_pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "pure.py").write_text("def k(a):\n    return a\n")
    (pkg / "numpy_backend.py").write_text(
        "def k(a, c):\n    return a\n\n\ndef extra(x):\n    return x\n")
    (pkg / "native_backend.py").write_text(
        "def k(a, b):\n    return a\n")

    found = _by_rule(lint_files(sorted(pkg.rglob("*.py"))))
    [b801] = found["B801"]
    assert b801.path.endswith("pure.py")
    assert "native_backend" in b801.message
    assert "numpy_backend" not in b801.message
