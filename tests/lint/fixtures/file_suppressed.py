"""Fixture: a file-level directive silences the whole file."""

# repro-lint: disable=all

import time


def noisy(sim, cb):
    start = time.time()
    sim.call_after(1.5, cb)
    return start
