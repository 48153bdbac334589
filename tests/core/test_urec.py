"""UReC FSM: header decode, raw and compressed transfers."""

import pytest

from repro.core.urec import (
    OperationMode,
    UReC,
    pack_header,
    unpack_header,
)
from repro.errors import ReconfigurationFailed
from repro.fpga.bram import Bram
from repro.fpga.decompressor import DECOMPRESSOR_LIBRARY, HardwareDecompressor
from repro.fpga.icap import Icap
from repro.bitstream.device import VIRTEX5_SX50T
from repro.bitstream.format import bytes_to_words, words_to_bytes
from repro.results import stream_crc
from repro.sim import Clock, Event, Process
from repro.units import Frequency


def build(sim, clk2_mhz=100.0, decompressor=None):
    clock = Clock(sim, "clk2", Frequency.from_mhz(clk2_mhz))
    bram = Bram(sim)
    icap = Icap(sim, VIRTEX5_SX50T, clock)
    urec = UReC(sim, bram, icap, clock, decompressor=decompressor)
    return urec, bram, icap, clock


def run_urec(sim, urec):
    start = Event(sim, "start")
    finish = Event(sim, "finish")
    Process(sim, urec.process(start, finish), name="urec")
    start.trigger()
    sim.run()
    assert finish.triggered
    return finish.payload


class TestHeader:
    def test_pack_unpack_raw(self):
        word = pack_header(OperationMode.RAW, 55424)
        assert unpack_header(word) == (OperationMode.RAW, 55424)

    def test_pack_unpack_compressed(self):
        word = pack_header(OperationMode.COMPRESSED, 123)
        assert word >> 31 == 1
        assert unpack_header(word) == (OperationMode.COMPRESSED, 123)

    def test_oversized_payload_rejected(self):
        with pytest.raises(ReconfigurationFailed):
            pack_header(OperationMode.RAW, 1 << 31)


class TestRawTransfer:
    def test_words_delivered_and_crc(self, sim):
        urec, bram, icap, _ = build(sim)
        payload = [0xAA995566, 0x12345678, 0xDEADBEEF, 0]
        bram.preload(words_to_bytes(
            [pack_header(OperationMode.RAW, len(payload))] + payload))
        stats = run_urec(sim, urec)
        assert stats.output_words == len(payload)
        assert icap.words_accepted == len(payload)
        assert icap.payload_crc == stream_crc(words_to_bytes(payload))

    def test_burst_timing_one_word_per_cycle(self, sim):
        urec, bram, icap, clock = build(sim, clk2_mhz=100.0)
        payload = [7] * 1000
        bram.preload(words_to_bytes(
            [pack_header(OperationMode.RAW, len(payload))] + payload))
        stats = run_urec(sim, urec)
        # 1000 words + 2 setup cycles at 10 ns.
        assert stats.burst_ps == (1000 + 2) * 10_000

    def test_en_gating_closes_activity(self, sim):
        urec, bram, icap, _ = build(sim)
        payload = [1, 2, 3]
        bram.preload(words_to_bytes(
            [pack_header(OperationMode.RAW, 3)] + payload))
        run_urec(sim, urec)
        assert not icap.activity.active
        assert len(icap.activity.intervals) == 1
        assert not bram.port_b_activity.active

    def test_multiple_runs_reuse_controller(self, sim):
        urec, bram, icap, _ = build(sim)
        payload = [9] * 10
        bram.preload(words_to_bytes(
            [pack_header(OperationMode.RAW, 10)] + payload))
        run_urec(sim, urec)
        run_urec(sim, urec)
        assert urec.runs == 2


class TestCompressedTransfer:
    def _decompressor(self, sim, mhz=125.0):
        spec = DECOMPRESSOR_LIBRARY["x-matchpro"]
        clock = Clock(sim, "clk3", Frequency.from_mhz(mhz))
        return HardwareDecompressor(sim, spec, clock)

    def test_functional_expansion(self, sim, small_bitstream):
        decompressor = self._decompressor(sim)
        urec, bram, icap, _ = build(sim, clk2_mhz=255.0,
                                    decompressor=decompressor)
        compressed = decompressor.compress_offline(small_bitstream.raw_bytes)
        if len(compressed) % 4:
            compressed += b"\x00" * (4 - len(compressed) % 4)
        stored = bytes_to_words(compressed)
        bram.preload(words_to_bytes(
            [pack_header(OperationMode.COMPRESSED, len(stored))] + stored))
        stats = run_urec(sim, urec)
        assert stats.mode is OperationMode.COMPRESSED
        assert icap.payload_crc == stream_crc(small_bitstream.raw_bytes)

    def test_compressed_without_decompressor_fails(self, sim):
        urec, bram, icap, _ = build(sim, decompressor=None)
        bram.preload(words_to_bytes(
            [pack_header(OperationMode.COMPRESSED, 1), 0]))
        start = Event(sim, "start")
        finish = Event(sim, "finish")
        Process(sim, urec.process(start, finish), name="urec")
        start.trigger()
        with pytest.raises(ReconfigurationFailed):
            sim.run()

    def test_pipeline_paced_by_slower_side(self, sim, small_bitstream):
        # At CLK_2 = 255 MHz and CLK_3 = 125 MHz x 2 words, the
        # decompressor (250 Mwords/s) is slower than ICAP (255).
        decompressor = self._decompressor(sim, mhz=125.0)
        urec, bram, icap, _ = build(sim, clk2_mhz=255.0,
                                    decompressor=decompressor)
        compressed = decompressor.compress_offline(small_bitstream.raw_bytes)
        if len(compressed) % 4:
            compressed += b"\x00" * (4 - len(compressed) % 4)
        stored = bytes_to_words(compressed)
        bram.preload(words_to_bytes(
            [pack_header(OperationMode.COMPRESSED, len(stored))] + stored))
        stats = run_urec(sim, urec)
        out_words = len(small_bitstream.raw_words)
        decomp_ps = decompressor.clock.cycles_duration(
            decompressor.stream_cycles(out_words))
        assert stats.burst_ps == pytest.approx(decomp_ps, rel=0.01)
