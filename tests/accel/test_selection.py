"""Backend registry: selection precedence, validation, metrics."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import accel
from repro.errors import AccelError
from repro.obs import install as obs_install
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _isolated_backend(monkeypatch):
    """Each test resolves from a clean slate (no force, no env)."""
    monkeypatch.delenv(accel.BACKEND_ENV, raising=False)
    with accel.using("auto"):
        yield


def test_pure_backend_always_available():
    assert accel.available_backends()[0] == "pure"


def _auto_expected():
    return "native" if accel.native_available() else "pure"


def test_auto_prefers_fastest_available_backend():
    expected = _auto_expected()
    assert accel.select("auto") == expected
    assert accel.backend_name() == expected


def test_select_pure_forces_pure():
    assert accel.select("pure") == "pure"
    assert accel.active().name == "pure"


def test_select_beats_environment(monkeypatch):
    # The environment names the other backend; an unbuilt native one
    # would raise if it were read at all.
    forced = _auto_expected()
    monkeypatch.setenv(accel.BACKEND_ENV,
                       "pure" if forced == "native" else "native")
    assert accel.select(forced) == forced


def test_environment_beats_auto(monkeypatch):
    monkeypatch.setenv(accel.BACKEND_ENV, "pure")
    assert accel.select("auto") == "pure"


def test_environment_auto_means_auto(monkeypatch):
    monkeypatch.setenv(accel.BACKEND_ENV, "auto")
    assert accel.select(None) == _auto_expected()


def test_invalid_name_rejected_without_clobbering_state():
    before = accel.backend_name()
    with pytest.raises(AccelError):
        accel.select("cuda")
    assert accel.backend_name() == before


def test_invalid_environment_value_rejected(monkeypatch):
    monkeypatch.setenv(accel.BACKEND_ENV, "fortran")
    with pytest.raises(AccelError):
        accel.select(None)  # re-resolves, reading the bad env value


def test_using_restores_previous_selection():
    accel.select("pure")
    with accel.using("auto") as name:
        assert name in ("pure", "native")
    assert accel.backend_name() == "pure"


@pytest.mark.parametrize("source", ["select", "environment"])
def test_numpy_is_not_a_backend(monkeypatch, source):
    accel.select("pure")
    choices = re.escape("('auto', 'pure', 'native')")
    with pytest.raises(AccelError, match=choices):
        if source == "select":
            accel.select("numpy")
        else:
            monkeypatch.setenv(accel.BACKEND_ENV, "numpy")
            accel.select(None)
    assert accel.backend_name() == "pure"


def test_no_backend_imports_numpy():
    # A fresh interpreter, so modules other tests imported do not count.
    probe = ("import sys; from repro import accel; "
             "accel.select(accel.available_backends()[-1]); "
             "accel.crc32c(bytes(64)); "
             "print('numpy' in sys.modules)")
    src = str(Path(accel.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(accel.BACKEND_ENV, None)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_native_request_without_extension_raises():
    if accel.native_available():
        pytest.skip("native extension built; covered by the suites "
                    "running under REPRO_BACKEND=native")
    with pytest.raises(AccelError, match="not built"):
        accel.select("native")


def test_native_listed_only_when_built():
    listed = "native" in accel.available_backends()
    assert listed == accel.native_available()


def test_dispatch_records_backend_tagged_counters():
    accel.select("pure")
    registry = MetricsRegistry()
    obs_install(registry=registry)
    try:
        accel.crc32c(b"\x00" * 64)
        accel.words_to_bytes([1, 2, 3])
    finally:
        obs_install()
    rows = dict(registry.snapshot()["counters"])
    assert rows["accel.pure.crc32c.calls"] == 1
    assert rows["accel.pure.crc32c.bytes"] == 64
    assert rows["accel.pure.words_to_bytes.bytes"] == 12


def test_no_registry_means_no_recording():
    # Must not raise against the NullRegistry singletons.
    accel.record("crc32c", 128)
