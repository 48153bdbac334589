"""Whole-pipeline determinism.

The repository's claim that every number in EXPERIMENTS.md reproduces
exactly depends on end-to-end determinism: same inputs, same events,
same traces, bit for bit.  These tests run complete experiments twice
and require identity — not approximate equality.
"""

from repro.analysis.powersweep import fig7_power_sweep
from repro.bitstream.generator import generate_bitstream
from repro.core.system import UPaRCSystem
from repro.sweep import PayloadSpec, RunSpec, execute_spec
from repro.units import DataSize, Frequency


def test_generator_bit_identical():
    first = generate_bitstream(size=DataSize.from_kb(32), seed=77)
    second = generate_bitstream(size=DataSize.from_kb(32), seed=77)
    assert first.file_bytes == second.file_bytes


def test_full_run_identical(small_bitstream):
    def run():
        system = UPaRCSystem(decompressor=None)
        return system.run(small_bitstream,
                          frequency=Frequency.from_mhz(300))

    first, second = run(), run()
    assert first.start_ps == second.start_ps
    assert first.finish_ps == second.finish_ps
    assert first.payload_crc == second.payload_crc
    assert first.energy.energy_uj == second.energy.energy_uj
    assert [(s.time_ps, s.value) for s in first.power_trace.samples] \
        == [(s.time_ps, s.value) for s in second.power_trace.samples]


def test_fig5_cell_identical():
    spec = RunSpec(workload="reconfigure", controller="UPaRC_i",
                   frequency_mhz=200.0,
                   payload=PayloadSpec(size_kb=12.0, seed=2012))
    first, _ = execute_spec(spec)
    second, _ = execute_spec(spec)
    assert first.duration_ps == second.duration_ps
    assert first.effective_mbps == second.effective_mbps


def test_fig7_point_identical():
    first = fig7_power_sweep(frequencies_mhz=(100.0,), size_kb=16.0)
    second = fig7_power_sweep(frequencies_mhz=(100.0,), size_kb=16.0)
    assert first[0].energy_uj == second[0].energy_uj
    assert first[0].reconfiguration_us == second[0].reconfiguration_us


def test_compression_deterministic(medium_bitstream):
    from repro.compress import all_codecs
    data = medium_bitstream.raw_bytes[:16384]
    for codec in all_codecs():
        fresh = type(codec)()
        assert codec.compress(data) == fresh.compress(data), codec.name
