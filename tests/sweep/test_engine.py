"""Sweep engine: determinism, payload reuse, parallel equivalence.

The load-bearing property is that result lists are *equal* — same
values, same order — across serial and parallel runs, and whether a
cell generates its payload or is handed the run's shared copy.
"""

import pytest

from repro.errors import ReproError
from repro.sweep import (
    SMOKE_GRID,
    TABLE1_GRID,
    PayloadSpec,
    RunSpec,
    SweepEngine,
    anchor_points,
    execute_spec,
    table1_ratios,
)

SMALL_PAYLOAD = PayloadSpec(size_kb=6.5, seed=2012)


@pytest.fixture(scope="module")
def smoke_serial():
    """One serial run of the smoke grid (shared reference)."""
    return SweepEngine(SMOKE_GRID, jobs=1).run()


def test_results_sorted_by_key(smoke_serial):
    keys = [result.key for result in smoke_serial]
    assert keys == sorted(keys)
    assert len(keys) == 4


def test_every_cell_crc_verified(smoke_serial):
    assert all(result.verified for result in smoke_serial)
    assert all(result.payload_crc for result in smoke_serial)


def test_parallel_equals_serial_uncached(smoke_serial):
    parallel = SweepEngine(SMOKE_GRID, jobs=2).run()
    assert parallel == smoke_serial


def test_shared_payload_run_is_byte_identical(smoke_serial):
    """Cells handed the run's shared bitstream equal cells that each
    generate their own."""
    alone = [execute_spec(spec)[0] for spec in SMOKE_GRID.expand()]
    assert alone == smoke_serial


def test_run_generates_each_payload_once(monkeypatch):
    from repro.sweep import engine

    calls = []
    real_generate = engine.generate_bitstream

    def counting_generate(*args, **kwargs):
        calls.append(args)
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(engine, "generate_bitstream", counting_generate)
    sweep = SweepEngine(SMOKE_GRID)
    sweep.run()
    # 2 payloads x 2 frequencies: one generation per payload.
    assert len(calls) == len(SMOKE_GRID.payloads) == 2
    sweep.run()
    assert len(calls) == 4  # nothing outlives a run


def test_matches_bandwidth_surface(smoke_serial):
    """A fresh system per cell equals one system per size, preloaded
    once and retuned per frequency (how the board would measure it)."""
    from repro.bitstream.generator import generate_bitstream
    from repro.core.system import UPaRCSystem
    from repro.units import DataSize, Frequency
    reference = {}
    for payload in SMOKE_GRID.payloads:
        system = UPaRCSystem(decompressor=None)
        system.preload(generate_bitstream(
            size=DataSize.from_kb(payload.size_kb), seed=payload.seed))
        for mhz in SMOKE_GRID.frequencies_mhz:
            system.set_frequency(Frequency.from_mhz(mhz))
            reference[payload.size_kb, mhz] = system.reconfigure()
    assert len(smoke_serial) == len(reference)
    for result in smoke_serial:
        cell = reference[result.size_kb, result.frequency_mhz]
        assert result.effective_mbps == cell.bandwidth_decimal_mbps
        assert result.theoretical_mbps \
            == Frequency.from_mhz(result.frequency_mhz).hertz * 4 / 1e6
        assert result.duration_ps == cell.duration_ps


def test_execute_spec_compress_matches_direct_codec():
    from repro.bitstream.generator import generate_bitstream
    from repro.compress import codec_by_name
    from repro.units import DataSize
    spec = RunSpec(workload="compress", codec="RLE",
                   payload=SMALL_PAYLOAD)
    result, _bitstream = execute_spec(spec)
    raw = generate_bitstream(size=DataSize.from_kb(6.5),
                             seed=2012).raw_bytes
    direct = codec_by_name("RLE").measure(raw)
    assert result.original_size == direct.original_size
    assert result.compressed_size == direct.compressed_size
    assert result.ratio_percent == direct.ratio_percent


def test_execute_spec_runs_on_the_given_bitstream():
    """``execute_spec(spec)`` generates the payload and returns it;
    handing that bitstream back in gives the same result."""
    spec = RunSpec(workload="reconfigure", controller="UPaRC_i",
                   frequency_mhz=100.0, payload=SMALL_PAYLOAD)
    generated, bitstream = execute_spec(spec)
    given, returned = execute_spec(spec, bitstream)
    assert given == generated
    assert returned is bitstream


def test_duplicate_cells_rejected():
    spec = RunSpec(workload="compress", codec="RLE",
                   payload=SMALL_PAYLOAD)
    with pytest.raises(ReproError, match="duplicate"):
        SweepEngine([spec, spec])


def test_anchor_points_read_the_362_5_mhz_corners(smoke_serial):
    """Only the 6.5 KB cell at 362.5 MHz is an anchor of the smoke
    grid; its efficiency is effective over theoretical bandwidth."""
    corner, = [result for result in smoke_serial
               if (result.size_kb, result.frequency_mhz) == (6.5, 362.5)]
    assert anchor_points(smoke_serial) == {
        "small": corner.effective_mbps / corner.theoretical_mbps * 100}
    assert all(result.efficiency_percent < 100.0
               for result in smoke_serial)


def test_table1_ratios_orders_like_the_paper():
    from repro.compress import PAPER_TABLE1_RATIOS
    specs = [RunSpec(workload="compress", codec=name,
                     payload=SMALL_PAYLOAD)
             for name in ("X-MatchPRO", "RLE")]
    results = SweepEngine(specs).run()
    ratios = table1_ratios(results)
    # Table I row order, not result-key order.
    assert list(ratios) == [name for name in PAPER_TABLE1_RATIOS
                            if name in ("RLE", "X-MatchPRO")]
    assert ratios["X-MatchPRO"] > ratios["RLE"]


def test_table1_ratios_equal_a_corpus_loop():
    """Each codec's mean sums the corpus in (size, seed) order, so it
    equals a plain loop over TABLE1_PAYLOADS exactly — not to 1 ulp."""
    from repro.bitstream.generator import generate_bitstream
    from repro.compress import all_codecs
    from repro.sweep.spec import TABLE1_PAYLOADS
    from repro.units import DataSize
    corpus = [generate_bitstream(size=DataSize.from_kb(payload.size_kb),
                                 seed=payload.seed).raw_bytes
              for payload in TABLE1_PAYLOADS]
    expected = {}
    for codec in all_codecs():
        values = [codec.measure(raw).ratio_percent for raw in corpus]
        expected[codec.name] = sum(values) / len(values)
    assert table1_ratios(SweepEngine(TABLE1_GRID).run()) == expected


def test_baseline_controller_cell_runs():
    """The controller axis covers the Table III baselines too."""
    spec = RunSpec(workload="reconfigure", controller="FaRM",
                   frequency_mhz=100.0, payload=SMALL_PAYLOAD)
    result, _bitstream = execute_spec(spec)
    assert result.verified
    assert 0 < result.effective_mbps < result.theoretical_mbps


def _square(value):
    return value * value


def test_fan_out_serial_preserves_order():
    from repro.sweep import fan_out
    assert fan_out([3, 1, 2], _square, jobs=1) == [9, 1, 4]


def test_fan_out_parallel_matches_serial():
    from repro.sweep import fan_out
    items = list(range(7))
    assert fan_out(items, _square, jobs=3) \
        == fan_out(items, _square, jobs=1)


def test_fan_out_single_item_runs_inline():
    from repro.sweep import fan_out
    calls = []
    assert fan_out([5], calls.append, jobs=8) == [None]
    assert calls == [5]  # an unpicklable worker proves it ran inline


def test_build_controller_names():
    from repro.controllers import build_controller
    assert build_controller("UPaRC_i").name == "UPaRC_i"
    with pytest.raises(ReproError):
        build_controller("bogus")
