"""repro.accel: swappable datapath backends for the hot kernels.

The simulation's datapath cost is concentrated in a handful of
operations: seeding, planning and synthesising frame payloads, bulk
word<->byte packing, CRC-32C folding (plain bytes, and the
configuration CRC's word-plus-address fold ``crc32c_words``),
splitting FDRI payloads into frames, and the compression codecs'
inner loops: the X-MatchPRO, LZ77 and RLE token scans, Huffman code
tables (histogram included) and packing, Zip's byte-token serializer
(``lzbytes_pack``), LZ78's dictionary coder (``lz78_pack``), 7-zip's
adaptive arithmetic coder (``lzma_pack``), and the decoder of each.
This package exposes those operations as a small kernel API with two
interchangeable implementations:

* :mod:`repro.accel.pure` — tuned stdlib Python, always available,
  and the semantic reference;
* :mod:`repro.accel.native_backend` — compiled C (cffi) for the
  kernels where C measurably wins, used automatically when the
  optional extension is built (``pip install .[native]`` or
  ``python -m repro.accel._native.build``).

The backends are **byte-identical**: every golden digest, sweep
result and compressed stream is the same whichever backend runs, so
backend choice is purely a speed decision.

Selection precedence: an explicit :func:`select` (the CLI's
``--backend`` flag) wins over the ``REPRO_BACKEND`` environment
variable, which wins over auto-detection (native if built, else
pure).  Kernel dispatches record ``accel.<backend>.<kernel>.calls`` /
``.bytes`` counters in the active :mod:`repro.obs` metrics registry,
so an observed run shows which backend served it and how much data
each kernel moved.

Everything outside this package goes through the dispatch functions
below or through :func:`active` for per-call-site inner loops.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from types import ModuleType
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.accel import pure
from repro.accel.plan import FrameMixture, SynthesisPlan
from repro.accel.pure import XMATCH_MASK_CODES, TokenStream
from repro.errors import AccelError
from repro.obs import current_registry

__all__ = [
    "BACKEND_ENV",
    "FrameMixture",
    "SynthesisPlan",
    "TokenStream",
    "XMATCH_MASK_CODES",
    "active",
    "available_backends",
    "backend_name",
    "bitpack",
    "bytes_to_words",
    "chunk_words",
    "crc32c",
    "crc32c_words",
    "equal_word_runs",
    "huffman_code_table",
    "huffman_decode",
    "huffman_pack",
    "lz77_decode",
    "lz77_tokens",
    "lz78_decode",
    "lz78_pack",
    "lzbytes_decode",
    "lzbytes_pack",
    "lzma_decode",
    "lzma_pack",
    "native_available",
    "plan_frames",
    "record",
    "rle_decode",
    "rle_records",
    "seed_mixture",
    "select",
    "synthesize_payload",
    "using",
    "words_to_bytes",
    "xmatch_decode",
    "xmatch_tokens",
    "zero_word_runs",
]

BACKEND_ENV = "REPRO_BACKEND"
_BACKEND_NAMES = ("pure", "native")

_forced: Optional[str] = None       # select()/CLI override, resolved name
_active: Optional[ModuleType] = None
_active_name = "pure"


def native_available() -> bool:
    """True when the compiled native extension could be loaded."""
    try:
        from repro.accel._native import _uparc_native  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> List[str]:
    """Backend names loadable in this environment, pure first."""
    names = ["pure"]
    if native_available():
        names.append("native")
    return names


def _load(name: str) -> ModuleType:
    if name == "pure":
        return pure
    if name == "native":
        try:
            from repro.accel import native_backend
        except ImportError as exc:
            raise AccelError(
                "backend 'native' requested but the compiled extension "
                "is not built (pip install repro-uparc[native] or "
                "python -m repro.accel._native.build)"
            ) from exc
        return native_backend
    raise AccelError(
        f"unknown accel backend {name!r}; "
        f"choose from {('auto',) + _BACKEND_NAMES}"
    )


def _resolve() -> ModuleType:
    """Load and cache the backend chosen by the selection precedence."""
    global _active, _active_name
    if _active is not None:
        return _active
    name = _forced
    if name is None:
        env = os.environ.get(BACKEND_ENV, "").strip()
        if env and env != "auto":
            if env not in _BACKEND_NAMES:
                raise AccelError(
                    f"{BACKEND_ENV}={env!r} is not a valid backend; "
                    f"choose from {('auto',) + _BACKEND_NAMES}"
                )
            name = env
    if name is None:
        name = "native" if native_available() else "pure"
    module = _load(name)
    _active = module
    _active_name = name
    return module


def active() -> ModuleType:
    """The resolved backend module (for per-call-site inner loops)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    return backend


def backend_name() -> str:
    """Resolved backend name (``pure`` or ``native``)."""
    if _active is None:
        _resolve()
    return _active_name


def select(name: Optional[str]) -> str:
    """Force a backend by name; returns the resolved backend name.

    ``None`` or ``"auto"`` clears any previous force and re-runs the
    normal precedence (environment variable, then auto-detection).
    An unknown name or environment value, or ``"native"`` without the
    compiled extension built, raises :class:`~repro.errors.AccelError`
    and leaves the previous selection in place.
    """
    global _forced, _active
    if name not in (None, "auto") and name not in _BACKEND_NAMES:
        raise AccelError(
            f"unknown accel backend {name!r}; "
            f"choose from {('auto',) + _BACKEND_NAMES}"
        )
    saved = (_forced, _active, _active_name)
    _forced = None if name in (None, "auto") else name
    _active = None
    try:
        return backend_name()
    except AccelError:
        _restore(saved)
        raise


@contextmanager
def using(name: Optional[str]) -> Iterator[str]:
    """Temporarily select a backend (tests and benchmarks)."""
    saved = (_forced, _active, _active_name)
    try:
        yield select(name)
    finally:
        _restore(saved)


def _restore(saved: Tuple[Optional[str], Optional[ModuleType], str]) -> None:
    global _forced, _active, _active_name
    _forced, _active, _active_name = saved


def record(kernel: str, data_bytes: int, calls: int = 1) -> None:
    """Count a kernel use in the active metrics registry.

    No-op unless a registry is installed.  Every dispatch function
    below calls it once per kernel call.
    """
    registry = current_registry()
    if not registry.enabled:
        return
    prefix = f"accel.{_active_name}.{kernel}"
    registry.counter(prefix + ".calls").inc(calls)
    registry.counter(prefix + ".bytes").inc(data_bytes)


# -- dispatch ---------------------------------------------------------


def _check_crc(crc: int) -> None:
    if not 0 <= crc <= 0xFFFFFFFF:
        raise ValueError(f"crc {crc} is outside 0..0xFFFFFFFF")


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) over ``data``, chained through ``crc``.

    Raises :class:`ValueError` before any backend runs when ``crc`` is
    not a 32-bit value.
    """
    _check_crc(crc)
    backend = _active
    if backend is None:
        backend = _resolve()
    record("crc32c", len(data))
    return backend.crc32c(data, crc)


def crc32c_words(data: bytes, address: int, crc: int = 0) -> int:
    """CRC-32C over each big-endian word of ``data``, ``address`` after each.

    Equal to :func:`crc32c` over the interleaved ``[4 data bytes]
    [address byte]`` blob, chained through ``crc``; empty ``data``
    returns ``crc`` unchanged.  Raises :class:`ValueError` before any
    backend runs when ``data`` is not whole words, ``address`` is not
    a byte or ``crc`` is not a 32-bit value.
    """
    if len(data) % 4:
        raise ValueError(
            f"crc32c_words needs whole 4-byte words, got {len(data)} bytes")
    if not 0 <= address <= 0xFF:
        raise ValueError(f"address byte {address} is outside 0..255")
    _check_crc(crc)
    backend = _active
    if backend is None:
        backend = _resolve()
    record("crc32c_words", len(data))
    return backend.crc32c_words(data, address, crc)


def words_to_bytes(words: Sequence[int]) -> bytes:
    """Big-endian 32-bit word serialization."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("words_to_bytes", 4 * len(words))
    return backend.words_to_bytes(words)


def bytes_to_words(data: bytes) -> List[int]:
    """Big-endian 32-bit word deserialization."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("bytes_to_words", len(data))
    return backend.bytes_to_words(data)


def seed_mixture(seed: Union[int, float, str, bytes, bytearray],
                 motif_pool: int,
                 pool_size: int) -> Tuple[array, Tuple[int, ...],
                                          Tuple[int, ...]]:
    """Seeded generator state, motifs and byte pool (see the pure reference)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("seed_mixture", 4 * (pure.STATE_WORDS + max(0, motif_pool))
           + max(0, pool_size))
    return backend.seed_mixture(seed, motif_pool, pool_size)


def plan_frames(state: array, mixture: FrameMixture, frame_count: int,
                have_previous: bool) -> SynthesisPlan:
    """Plan frames of payload ops, advancing ``state`` in place."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("plan_frames", 4 * max(0, frame_count) * mixture.frame_words)
    return backend.plan_frames(state, mixture, frame_count, have_previous)


def synthesize_payload(plan: SynthesisPlan) -> bytes:
    """Materialise a :class:`SynthesisPlan` into packed payload bytes."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("synthesize_payload", 4 * plan.total_words)
    return backend.synthesize_payload(plan)


def equal_word_runs(data: bytes, word_count: int) -> List[int]:
    """Lengths of maximal equal-word runs (see the pure reference)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("equal_word_runs", 4 * word_count)
    return backend.equal_word_runs(data, word_count)


def zero_word_runs(data: bytes,
                   word_count: int) -> Tuple[List[int], List[int]]:
    """Starts and lengths of maximal zero-word runs."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("zero_word_runs", 4 * word_count)
    return backend.zero_word_runs(data, word_count)


def chunk_words(block: Sequence[int], offset: int,
                frame_words: int) -> Tuple[List[List[int]], List[int]]:
    """Split ``block[offset:]`` into full frames plus the tail."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("chunk_words", 4 * max(0, len(block) - offset))
    return backend.chunk_words(block, offset, frame_words)


def bitpack(values: Sequence[int], widths: Sequence[int]) -> bytes:
    """MSB-first bit packing of ``(value, width)`` token pairs."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("bitpack", 8 * len(values))
    return backend.bitpack(values, widths)


def xmatch_tokens(data: bytes, word_count: int,
                  capacity: int) -> TokenStream:
    """X-MatchPRO token stream over the word-aligned prefix of ``data``."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("xmatch_tokens", 4 * word_count)
    return backend.xmatch_tokens(data, word_count, capacity)


def lz77_tokens(data: bytes, window_bits: int, length_bits: int,
                min_match: int, max_chain: int) -> TokenStream:
    """LZSS literal/match token stream over ``data``."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("lz77_tokens", len(data))
    return backend.lz77_tokens(data, window_bits, length_bits,
                               min_match, max_chain)


def huffman_code_table(data: bytes) -> Tuple[List[int], List[int]]:
    """Canonical Huffman ``(codes, lengths)`` for the bytes of ``data``."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("huffman_code_table", len(data))
    return backend.huffman_code_table(data)


def huffman_pack(data: bytes, codes: Sequence[int],
                 lengths: Sequence[int]) -> bytes:
    """Encode ``data`` through a 256-entry code table and bit-pack it."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("huffman_pack", len(data))
    return backend.huffman_pack(data, codes, lengths)


def rle_records(data: bytes, word_count: int) -> bytes:
    """Word-RLE record stream (no header) over ``data``."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("rle_records", 4 * word_count)
    return backend.rle_records(data, word_count)


def xmatch_decode(body: bytes, output_length: int,
                  capacity: int) -> bytes:
    """Decode an X-MatchPRO token-stream body (see the pure reference)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("xmatch_decode", output_length)
    return backend.xmatch_decode(body, output_length, capacity)


def lz77_decode(body: bytes, output_length: int, window_bits: int,
                length_bits: int, min_match: int) -> bytes:
    """Decode an LZSS token-stream body."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("lz77_decode", output_length)
    return backend.lz77_decode(body, output_length, window_bits,
                               length_bits, min_match)


def huffman_decode(body: bytes, output_length: int,
                   lengths: bytes) -> bytes:
    """Decode a canonical-Huffman body against a 256-byte length table."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("huffman_decode", output_length)
    return backend.huffman_decode(body, output_length, lengths)


def rle_decode(records: bytes, output_length: int) -> bytes:
    """Decode a word-RLE record stream (no header)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("rle_decode", output_length)
    return backend.rle_decode(records, output_length)


def lz78_pack(data: bytes, max_entries: int) -> bytes:
    """LZ78 ``(index, next byte)`` bit stream (no header) over ``data``."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("lz78_pack", len(data))
    return backend.lz78_pack(data, max_entries)


def lz78_decode(body: bytes, output_length: int, max_entries: int) -> bytes:
    """Decode an LZ78 bit stream (no header)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("lz78_decode", output_length)
    return backend.lz78_decode(body, output_length, max_entries)


def lzma_pack(values: Sequence[int], widths: Sequence[int],
              match_mask: int) -> bytes:
    """Arithmetic-code a byte-LZ token stream (7-zip's entropy stage)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("lzma_pack", 8 * len(values))
    return backend.lzma_pack(values, widths, match_mask)


def lzma_decode(body: bytes, output_length: int) -> bytes:
    """Decode a 7-zip arithmetic code stream (no header)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("lzma_decode", output_length)
    return backend.lzma_decode(body, output_length)


def lzbytes_pack(values: Sequence[int], widths: Sequence[int],
                 match_mask: int) -> bytes:
    """Serialize a byte-LZ token stream (Zip's token stage, no header)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("lzbytes_pack", 8 * len(values))
    return backend.lzbytes_pack(values, widths, match_mask)


def lzbytes_decode(body: bytes, output_length: int) -> bytes:
    """Decode a Zip byte-token stream (no header)."""
    backend = _active
    if backend is None:
        backend = _resolve()
    record("lzbytes_decode", output_length)
    return backend.lzbytes_decode(body, output_length)
