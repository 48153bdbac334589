"""Importing the package loads nothing outside the standard library.

The only third-party code the program may load is cffi, for the
compiled accel backend.  The probe runs in a fresh interpreter and
snapshots ``sys.modules`` before importing anything, so modules the
interpreter's ``site`` start-up loads (a ``.pth`` file's imports) do
not count against the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import accel

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 10),
    reason="sys.stdlib_module_names is new in Python 3.10")

#: ``__mp_main__`` is the name multiprocessing gives ``__main__``.
ALLOWED = {"repro", "cffi", "_cffi_backend", "__mp_main__"}

PROBE = """\
import sys
before = set(sys.modules)
import repro, repro.serve, repro.sweep, repro.compress.registry
from repro import accel
accel.select(accel.available_backends()[-1])
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def test_package_imports_only_stdlib_and_cffi():
    src = str(Path(accel.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(accel.BACKEND_ENV, None)
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, check=True)
    loaded = result.stdout.split()
    assert "repro" in loaded
    foreign = set(loaded) - set(sys.stdlib_module_names) - ALLOWED
    assert not foreign, f"non-stdlib modules imported: {sorted(foreign)}"
