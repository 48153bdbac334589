"""Module outside the backend package importing backends directly."""

from accel_drift_pkg import pure  # B804
import accel_drift_pkg.native_backend as nb  # B804


def use():
    return pure.pack_words(b""), nb.scan_runs(b"", 0)


from accel_drift_pkg import pure as direct  # repro-lint: disable=B804
