"""Fixture: C502 repr/str/f-string output hashed into a digest."""

import hashlib


def key_of(spec, nonce):
    a = hashlib.sha256(repr(spec).encode())  # violation: repr
    b = hashlib.sha256(f"{spec}-{nonce}".encode())  # violation: f-string
    c = hashlib.sha256(str(spec).encode())  # repro-lint: disable=C502
    d = hashlib.sha256(str("literal").encode())  # ok: constant input
    return a, b, c, d


def key_of_text(spec, parts):
    e = hashlib.sha256(repr(spec).lower().encode())  # violation: str chain
    text = str(spec)  # violation: hashed below through a local
    f = hashlib.sha256(text.strip().encode())
    g = hashlib.sha256(text.encode())  # same local: reported once
    rebound = repr(spec)
    rebound = canonical(spec)
    h = hashlib.sha256(rebound.encode())  # ok: bound twice, not followed
    joined = "-".join(parts)
    i = hashlib.sha256(joined.encode())  # ok: no repr in the chain
    return e, f, g, h, i


def canonical(spec):
    return sorted(spec)
