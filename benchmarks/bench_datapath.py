"""Datapath kernel benchmark across accel backends, byte-checked.

Times every :mod:`repro.accel` kernel on realistic inputs (the
payload of a generated partial bitstream) plus one end-to-end mode-ii
reconfiguration, under each requested backend (pure, and the compiled
native extension when built), and verifies on the fly that all
backends return byte-identical results — a speedup measured on
diverging outputs is meaningless.

Standalone on purpose (pytest imports this module when collecting
``benchmarks/`` but finds no tests): the CI quick job and the
committed ``BENCH_datapath.json`` both come from::

    PYTHONPATH=src python benchmarks/bench_datapath.py \
        --backend all --output BENCH_datapath.json

``--quick`` shrinks payloads and repeats for a smoke-level run;
``--backend all`` times every *available* backend (so it works on a
toolchain-free install by simply skipping the native column).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro import accel
from repro.bitstream.generator import (
    BitstreamSpec,
    _FrameSynthesizer,
    generate_bitstream,
)
from repro.obs.profiling import Timer
from repro.units import DataSize, Frequency

PAYLOAD_KB = 216.5      # the paper's power/energy campaign size
QUICK_KB = 24.0
SEED = 2012

# Mode-ii wall time of the pure backend at the full payload size as
# measured immediately before the compressor-stack kernels landed;
# the end-to-end report compares against it so the cumulative win
# stays visible even as the pure baseline itself gets faster.
PRE_KERNEL_PURE_MODE_II_S = 0.2590


def _bench(func: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """(best elapsed seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        with Timer() as timer:
            result = func()
        best = min(best, timer.elapsed_s)
    return best, result


def _kernel_cases(size_kb: float) -> List[Tuple[str, Callable[[], object]]]:
    """Named closures, each exercising one accel kernel on real data.

    Every closure reads the *active* backend at call time, so the same
    case list is timed once per backend selection.
    """
    spec = BitstreamSpec(size=DataSize.from_kb(size_kb), seed=SEED)
    bitstream = generate_bitstream(spec)
    payload = bitstream.frame_payload
    words = accel.bytes_to_words(payload)
    word_count = len(words)
    frame_words = spec.device.frame_words

    synthesizer = _FrameSynthesizer(spec)
    plan = synthesizer.plan(word_count // frame_words)

    return [
        ("synthesize_payload",
         lambda: accel.active().synthesize_payload(plan)),
        ("crc32c",
         lambda: accel.active().crc32c(payload)),
        ("words_to_bytes",
         lambda: accel.active().words_to_bytes(words)),
        ("bytes_to_words",
         lambda: accel.active().bytes_to_words(payload)),
        ("equal_word_runs",
         lambda: accel.active().equal_word_runs(payload, word_count)),
        ("zero_word_runs",
         lambda: accel.active().zero_word_runs(payload, word_count)),
        ("chunk_words",
         lambda: accel.active().chunk_words(words, 0, frame_words)),
        ("rle_compress",
         lambda: _rle_compress(payload)),
    ]


def _rle_compress(payload: bytes) -> bytes:
    from repro.compress import RleCodec
    return RleCodec().compress(payload)


def _mode_ii_run(size_kb: float) -> int:
    """One generate + compressed-preload reconfiguration; duration ps."""
    from repro.core.system import UPaRCSystem
    from repro.core.urec import OperationMode
    bitstream = generate_bitstream(size=DataSize.from_kb(size_kb),
                                   seed=SEED)
    result = UPaRCSystem().run(bitstream,
                               frequency=Frequency.from_mhz(255),
                               mode=OperationMode.COMPRESSED)
    assert result.verified
    return result.duration_ps


def run_suite(backends: List[str], size_kb: float,
              repeats: int) -> Dict[str, object]:
    kernels: Dict[str, Dict[str, float]] = {}
    end_to_end: Dict[str, float] = {}
    reference: Dict[str, object] = {}

    for backend in backends:
        with accel.using(backend):
            assert accel.backend_name() == backend
            for name, func in _kernel_cases(size_kb):
                elapsed, result = _bench(func, repeats)
                kernels.setdefault(name, {})[backend + "_s"] = elapsed
                if name in reference:
                    # The whole point: backends must agree bytewise.
                    assert reference[name] == result, (
                        f"backend divergence in {name}")
                else:
                    reference[name] = result
            elapsed, _ = _bench(lambda: _mode_ii_run(size_kb),
                                max(1, repeats - 1))
            end_to_end[backend + "_s"] = elapsed

    if backends and backends[0] == "pure":
        for fast_name in backends[1:]:
            for row in kernels.values():
                row["speedup_" + fast_name] = round(
                    row["pure_s"] / row[fast_name + "_s"], 2)
            end_to_end["speedup_" + fast_name] = round(
                end_to_end["pure_s"] / end_to_end[fast_name + "_s"], 2)

    if size_kb == PAYLOAD_KB:
        # Only meaningful at the pinned baseline's payload size.
        for backend in backends:
            end_to_end["speedup_vs_pre_kernel_pure_" + backend] = round(
                PRE_KERNEL_PURE_MODE_II_S / end_to_end[backend + "_s"], 2)

    return {
        "payload_kb": size_kb,
        "repeats": repeats,
        "backends": backends,
        "kernels": kernels,
        "end_to_end": {"mode_ii_generate_and_reconfigure": end_to_end},
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
