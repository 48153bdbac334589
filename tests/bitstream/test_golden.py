"""Golden-file format stability.

The on-disk bitstream format and the generator's output are part of
the library's contract: EXPERIMENTS.md promises its numbers reproduce
exactly, and saved ``.bit`` assets must stay loadable across versions.
A byte-exact golden file guards both.  If this test fails after an
*intentional* format/generator change, regenerate the golden file and
bump the note in EXPERIMENTS.md — never silently.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import accel
from repro.bitstream.device import VIRTEX5_SX50T
from repro.bitstream.fileio import load_bit
from repro.bitstream.generator import generate_bitstream
from repro.core.system import UPaRCSystem
from repro.core.urec import OperationMode
from repro.units import DataSize, Frequency

GOLDEN = Path(__file__).resolve().parent.parent / "data" \
    / "golden_4kb_seed2012.bit"
#: Pinned benchmark outputs; read here, never written.
BENCH_GOLDENS = Path(__file__).resolve().parents[2] / "bench" \
    / "goldens.json"
GOLDEN_SHA256 = \
    "f480087037c420f7ca4c3879077c78d68621d846b85e813118ff4c7b7ba8deab"


def test_golden_file_unchanged():
    blob = GOLDEN.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256


def test_generator_reproduces_golden_bytes():
    bitstream = generate_bitstream(size=DataSize.from_kb(4), seed=2012)
    assert bitstream.file_bytes == GOLDEN.read_bytes()


def test_golden_file_loads_and_verifies():
    loaded = load_bit(GOLDEN, VIRTEX5_SX50T)
    from repro.core.system import UPaRCSystem
    result = UPaRCSystem(decompressor=None).run(loaded)
    assert result.verified
    assert result.frames_written == loaded.frame_count


@pytest.fixture(scope="module")
def mode_ii_goldens():
    return json.loads(BENCH_GOLDENS.read_text())["mode_ii"]


@pytest.mark.parametrize("backend", accel.available_backends())
@pytest.mark.parametrize("seed", range(2012, 2020))
def test_mode_ii_payloads_match_bench_goldens(mode_ii_goldens, backend,
                                              seed):
    # The full 216.5 KB payload (1,351 planned frames) through the
    # compressed mode-ii run, as the benchmark's mode_ii op does it:
    # a planner slip at this size shows here, not only in a bench run.
    with accel.using(backend):
        bitstream = generate_bitstream(size=DataSize.from_kb(216.5),
                                       seed=seed)
        result = UPaRCSystem().run(bitstream,
                                   frequency=Frequency.from_mhz(255.0),
                                   mode=OperationMode.COMPRESSED)
    assert result.verified
    assert [result.transfer_ps, result.stored_size.bytes,
            result.payload_crc] == mode_ii_goldens[f"s{seed}"]
