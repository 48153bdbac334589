"""Drifted native backend for the B-rule fixtures."""


def pack_words(words, order):
    # B801: extra parameter drifts from the pure reference.
    return bytes(words)


def scan_runs(data, count):
    return [count for _ in data]


def extra_kernel(x):
    # B801: no pure reference implementation exists.
    return x


def fold_bits(data):
    return data[0] if data else 0


def mix_rows(rows, stride):
    return [row * stride for row in rows]


# Suppressed seed for the directive tests.
def stray_kernel(a, b):  # repro-lint: disable=B801
    return a + b
