"""Compressor-stack benchmark: per-codec throughput per backend.

Times ``compress`` and ``decompress`` for every kernelised codec
(X-MatchPRO, LZ77, Huffman, RLE) over the payload of a generated
partial bitstream, under each requested accel backend (pure, and the
compiled native extension when built), and verifies on the fly that
the compressed streams are byte-identical across backends — a
throughput number measured on diverging outputs is meaningless.

Standalone on purpose (pytest imports this module when collecting
``benchmarks/`` but finds no tests): the CI smoke job and the
committed ``BENCH_compress.json`` both come from::

    PYTHONPATH=src python benchmarks/bench_compress.py \
        --backend all --output BENCH_compress.json

``--quick`` shrinks the payload and repeats for a smoke-level run;
``--backend all`` times every *available* backend, so it works on a
toolchain-free install.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro import accel
from repro.bitstream.generator import generate_bitstream
from repro.compress import (
    HuffmanCodec,
    Lz77Codec,
    RleCodec,
    XMatchProCodec,
)
from repro.obs.profiling import Timer
from repro.units import DataSize

PAYLOAD_KB = 216.5      # the paper's power/energy campaign size
QUICK_KB = 24.0
SEED = 2012

CODECS = [XMatchProCodec(), Lz77Codec(), HuffmanCodec(), RleCodec()]


def _bench(func: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """(best elapsed seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        with Timer() as timer:
            result = func()
        best = min(best, timer.elapsed_s)
    return best, result


def run_suite(backends: List[str], size_kb: float,
              repeats: int) -> Dict[str, object]:
    payload = generate_bitstream(size=DataSize.from_kb(size_kb),
                                 seed=SEED).raw_bytes
    payload_mb = len(payload) / 1e6
    codecs: Dict[str, Dict[str, object]] = {}
    reference: Dict[str, bytes] = {}

    for backend in backends:
        with accel.using(backend):
            assert accel.backend_name() == backend
            for codec in CODECS:
                row = codecs.setdefault(codec.name, {})
                compress_s, compressed = _bench(
                    lambda codec=codec: codec.compress(payload), repeats)
                decompress_s, original = _bench(
                    lambda codec=codec, blob=compressed:
                    codec.decompress(blob), repeats)
                assert original == payload, f"{codec.name} roundtrip"
                if codec.name in reference:
                    # The whole point: backends must agree bytewise.
                    assert reference[codec.name] == compressed, (
                        f"backend divergence in {codec.name}")
                else:
                    reference[codec.name] = compressed
                row["ratio"] = round(len(payload) / len(compressed), 3)
                row[backend + "_compress_s"] = compress_s
                row[backend + "_decompress_s"] = decompress_s
                row[backend + "_compress_mb_s"] = round(
                    payload_mb / compress_s, 2)
                row[backend + "_decompress_mb_s"] = round(
                    payload_mb / decompress_s, 2)

    if backends and backends[0] == "pure":
        for fast_name in backends[1:]:
            for row in codecs.values():
                row["compress_speedup_" + fast_name] = round(
                    row["pure_compress_s"]
                    / row[fast_name + "_compress_s"], 2)
                row["decompress_speedup_" + fast_name] = round(
                    row["pure_decompress_s"]
                    / row[fast_name + "_decompress_s"], 2)

    return {
        "payload_kb": size_kb,
        "repeats": repeats,
        "backends": backends,
        "codecs": codecs,
    }


def resolve_backends(choice: str) -> Optional[List[str]]:
    """Map the ``--backend`` flag to installed backends (None: usage
    error, already reported)."""
    if choice == "all":
        return accel.available_backends()
    if choice == "native" and not accel.native_available():
        print("native backend requested but the extension is not "
              "built (python -m repro.accel._native.build)",
              file=sys.stderr)
        return None
    return [choice]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("pure", "native", "all"),
                        default="all")
    parser.add_argument("--quick", action="store_true",
                        help="small payload, fewer repeats (CI smoke)")
    parser.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    args = parser.parse_args(argv)

    backends = resolve_backends(args.backend)
    if backends is None:
        return 2

    size_kb = QUICK_KB if args.quick else PAYLOAD_KB
    repeats = 2 if args.quick else 5
    report = run_suite(backends, size_kb, repeats)

    blob = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(blob + "\n")
    print(blob)
    return 0


if __name__ == "__main__":
    sys.exit(main())
