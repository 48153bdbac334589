"""ICAP model: bursts, frequency envelope, integrity CRC."""

import pytest

from repro.bitstream.device import VIRTEX5_SX50T, VIRTEX6_LX240T
from repro.bitstream.format import words_to_bytes
from repro.errors import FrequencyError, HardwareModelError
from repro.fpga.icap import Icap
from repro.results import stream_crc
from repro.sim import Clock
from repro.units import DataSize, Frequency


def make_icap(sim, mhz=100.0, device=VIRTEX5_SX50T, allow_overclock=True):
    clock = Clock(sim, "clk2", Frequency.from_mhz(mhz))
    return Icap(sim, device, clock, allow_overclock=allow_overclock)


def test_burst_duration_one_word_per_cycle(sim):
    icap = make_icap(sim, 100)
    icap.enable()
    duration = icap.accept_burst(1000)
    assert duration == 1000 * 10_000  # 10 ns per word


def test_enable_checks_frequency(sim):
    icap = make_icap(sim, 400)  # above even the demonstrated limit
    with pytest.raises(FrequencyError):
        icap.enable()


def test_demonstrated_overclock_allowed_on_v5(sim):
    icap = make_icap(sim, 362.5)
    icap.enable()
    icap.disable()


def test_nominal_mode_rejects_overclock(sim):
    icap = make_icap(sim, 150, allow_overclock=False)
    with pytest.raises(FrequencyError):
        icap.enable()


def test_v6_demonstrated_limit_lower(sim):
    icap = make_icap(sim, 362.5, device=VIRTEX6_LX240T)
    with pytest.raises(FrequencyError):
        icap.enable()


def test_burst_into_disabled_port_rejected(sim):
    icap = make_icap(sim)
    with pytest.raises(HardwareModelError):
        icap.accept_burst(10)


def test_double_enable_rejected(sim):
    icap = make_icap(sim)
    icap.enable()
    with pytest.raises(HardwareModelError):
        icap.enable()


def test_disable_without_enable_rejected(sim):
    with pytest.raises(HardwareModelError):
        make_icap(sim).disable()


def test_activity_tracks_en_gating(sim):
    icap = make_icap(sim)
    icap.enable()
    sim.run(until_ps=500)
    icap.disable()
    assert icap.activity.intervals == [(0, 500)]


def test_words_accepted_accumulates(sim):
    icap = make_icap(sim)
    icap.enable()
    icap.accept_burst(100)
    icap.accept_burst(50)
    assert icap.words_accepted == 150
    assert icap.data_accepted() == DataSize.from_words(150)


def test_absorb_updates_crc(sim):
    icap = make_icap(sim)
    icap.enable()
    words = [0xAA995566, 0x12345678, 0]
    icap.absorb(words_to_bytes(words))
    expected = stream_crc(b"\xaa\x99\x55\x66\x12\x34\x56\x78"
                          b"\x00\x00\x00\x00")
    assert icap.payload_crc == expected


def test_absorb_rejects_partial_words(sim):
    icap = make_icap(sim)
    icap.enable()
    with pytest.raises(HardwareModelError):
        icap.absorb(words_to_bytes([1, 2]) + b"\x03")
    assert icap.words_accepted == 0
    assert icap.payload_crc == 0


def test_absorb_crc_is_order_sensitive(sim):
    icap1 = make_icap(sim)
    icap1.enable()
    icap1.absorb(words_to_bytes([1, 2]))
    from repro.sim import Simulator
    sim2 = Simulator()
    icap2 = make_icap(sim2)
    icap2.enable()
    icap2.absorb(words_to_bytes([2, 1]))
    assert icap1.payload_crc != icap2.payload_crc


def test_reset_payload_clears_state(sim):
    icap = make_icap(sim)
    icap.enable()
    icap.absorb(words_to_bytes([7, 8, 9]))
    icap.reset_payload()
    assert icap.words_accepted == 0
    assert icap.payload_crc == 0


def test_half_rate_burst_takes_twice_as_long(sim):
    icap = make_icap(sim, 100)
    icap.enable()
    full = icap.accept_burst(1000, words_per_cycle=1.0)
    half = icap.accept_burst(1000, words_per_cycle=0.5)
    assert half == pytest.approx(2 * full, rel=0.01)


def test_invalid_issue_rate_rejected(sim):
    icap = make_icap(sim)
    icap.enable()
    with pytest.raises(HardwareModelError):
        icap.accept_burst(10, words_per_cycle=0)
    with pytest.raises(HardwareModelError):
        icap.accept_burst(10, words_per_cycle=3)


def test_theoretical_bandwidth(sim):
    icap = make_icap(sim, 362.5)
    assert icap.theoretical_bandwidth_mbps() == pytest.approx(1382.8,
                                                              rel=1e-3)


def test_burst_cycles_exact_integers_across_rates(sim):
    """Regression: fractional issue rates must yield exact int cycles.

    ``-(-words // rate)`` on a float rate returns a float; the cycle
    count feeds ``Clock.cycles_duration`` and must be an exact int at
    every supported rate (0.5 bus-fed, 1.0 UReC, 1.25 overfeed).
    """
    icap = make_icap(sim)
    cases = [
        (1000, 0.5, 2000),   # half rate: twice the cycles
        (1000, 1.0, 1000),   # UReC feeds one word per cycle
        (1000, 1.25, 800),   # 5 words per 4 cycles, exact
        (7, 1.25, 6),        # ceil(7 / 1.25) = ceil(5.6)
        (1, 1.25, 1),        # single word still costs a cycle
        (0, 1.25, 0),        # empty burst is free
        (999, 2.0, 500),     # ceil(999 / 2)
    ]
    for words, rate, expected in cases:
        cycles = icap.burst_cycles(words, words_per_cycle=rate)
        assert type(cycles) is int, (words, rate, cycles)
        assert cycles == expected, (words, rate, cycles)


def test_burst_cycles_ceiling_never_undercounts(sim):
    """At rates > 1 the port can't finish mid-cycle: always round up."""
    icap = make_icap(sim)
    for words in range(1, 64):
        for numerator, denominator in ((5, 4), (3, 2), (2, 1)):
            rate = numerator / denominator
            cycles = icap.burst_cycles(words, words_per_cycle=rate)
            # cycles is the smallest int with cycles * rate >= words.
            assert cycles * numerator >= words * denominator
            assert (cycles - 1) * numerator < words * denominator
