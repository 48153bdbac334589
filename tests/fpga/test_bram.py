"""Dual-port BRAM model."""

import pytest

from repro.bitstream.format import bytes_to_words, words_to_bytes
from repro.errors import CapacityError, FrequencyError, HardwareModelError
from repro.fpga.bram import Bram
from repro.sim import Clock
from repro.units import DataSize, Frequency


def make_clock(sim, mhz):
    return Clock(sim, "clk", Frequency.from_mhz(mhz))


def test_default_capacity_is_256kb(sim):
    assert Bram(sim).capacity == DataSize(256 * 1024)


def test_capacity_must_be_word_aligned(sim):
    with pytest.raises(CapacityError):
        Bram(sim, capacity=DataSize(1001))


def test_preload_then_read_roundtrip(sim):
    bram = Bram(sim)
    bram.preload(words_to_bytes([10, 20, 30]))
    bram.enable_read_port(make_clock(sim, 100))
    assert bram.read_word(0) == 10
    assert bytes_to_words(bram.read_burst(1, 2)) == [20, 30]


def test_preload_offset(sim):
    bram = Bram(sim)
    bram.preload(words_to_bytes([1]), offset=5)
    bram.enable_read_port(make_clock(sim, 100))
    assert bram.read_word(5) == 1
    assert bram.valid_words == 6


def test_preload_overflow_rejected(sim):
    bram = Bram(sim, capacity=DataSize(16))  # 4 words
    with pytest.raises(CapacityError):
        bram.preload(words_to_bytes([0] * 5))


def test_preload_non_word_value_rejected(sim):
    # Port A stores bytes: a value that is not whole 32-bit words is a
    # trailing partial word.
    bram = Bram(sim)
    with pytest.raises(HardwareModelError):
        bram.preload(words_to_bytes([1]) + b"\x00")


def test_preload_rejects_word_list(sim):
    bram = Bram(sim)
    with pytest.raises(TypeError):
        bram.preload([1, 2, 3, 4])
    assert bram.valid_words == 0


def test_read_requires_enabled_port(sim):
    bram = Bram(sim)
    bram.preload(words_to_bytes([1]))
    with pytest.raises(HardwareModelError):
        bram.read_word(0)
    with pytest.raises(HardwareModelError):
        bram.read_burst(0, 1)


def test_burst_out_of_range_rejected(sim):
    bram = Bram(sim, capacity=DataSize(16))
    bram.enable_read_port(make_clock(sim, 100))
    with pytest.raises(CapacityError):
        bram.read_burst(2, 3)


def test_overclocked_read_port_allowed_by_default(sim):
    bram = Bram(sim)
    bram.enable_read_port(make_clock(sim, 362.5))  # above the 300 MHz spec


def test_overclock_rejected_when_disallowed(sim):
    bram = Bram(sim, allow_overclock=False)
    with pytest.raises(FrequencyError):
        bram.enable_read_port(make_clock(sim, 362.5))


def test_double_enable_rejected(sim):
    bram = Bram(sim)
    bram.enable_read_port(make_clock(sim, 100))
    with pytest.raises(HardwareModelError):
        bram.enable_read_port(make_clock(sim, 100))


def test_port_b_activity_intervals(sim):
    bram = Bram(sim)
    bram.enable_read_port(make_clock(sim, 100))
    sim.run(until_ps=700)
    bram.disable_read_port()
    assert bram.port_b_activity.intervals == [(0, 700)]


def test_fits_accounts_for_header_word(sim):
    bram = Bram(sim, capacity=DataSize(16))  # 4 words
    assert bram.fits(DataSize.from_words(3))
    assert not bram.fits(DataSize.from_words(4))  # header needs the 4th


def test_stored_reports_valid_extent(sim):
    bram = Bram(sim)
    assert bram.stored is None
    bram.preload(words_to_bytes([1, 2, 3]))
    assert bram.stored == DataSize.from_words(3)


def test_preload_cycles_is_one_per_word(sim):
    assert Bram(sim).preload_cycles(100) == 100
