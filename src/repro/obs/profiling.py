"""Wall-clock profiling — the only module allowed to read host clocks.

Everything else in the tree is simulation code and must be a pure
function of simulated state; the determinism lint rules (D101/D104)
enforce that by flagging ``time.*`` clock reads anywhere outside this
file.  Host timings measured here go back to the caller (sweep's
fan-out utilisation, serve bench's cell time) and never into a
metrics registry, so host noise can never leak into a determinism
comparison.
"""

from __future__ import annotations

import time

__all__ = ["Timer", "now_s"]


def now_s() -> float:
    """Monotonic wall-clock seconds (host time, non-deterministic)."""
    return time.perf_counter()


class Timer:
    """Context manager measuring elapsed wall seconds.

    ``elapsed_s`` is valid after exit.
    """

    __slots__ = ("_start", "elapsed_s")

    def __init__(self) -> None:
        self._start = 0.0
        self.elapsed_s = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed_s = time.perf_counter() - self._start
