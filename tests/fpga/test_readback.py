"""ICAP readback (RCFG/FDRO) and the hardware sequencer manager."""

import pytest

from repro.bitstream.device import VIRTEX5_SX50T
from repro.bitstream.format import (
    Command,
    ConfigPacket,
    ConfigRegister,
    Opcode,
    SYNC_WORD,
    command_packet,
    words_to_bytes,
    write_packet,
)
from repro.bitstream.frames import BlockType, FrameAddress
from repro.bitstream.generator import REGION_ORIGIN, generate_bitstream
from repro.errors import BitstreamFormatError, HardwareModelError
from repro.fpga.config_memory import (
    ConfigurationLogic,
    ConfigurationMemory,
)
from repro.fpga.icap import Icap
from repro.fpga.sequencer import HardwareSequencer
from repro.sim import Clock
from repro.units import DataSize, Frequency


def far(column, minor=0):
    return FrameAddress(BlockType.CLB_IO_CLK, 0, 0, column, minor)


@pytest.fixture
def configured_logic(small_bitstream):
    logic = ConfigurationLogic(ConfigurationMemory(VIRTEX5_SX50T))
    logic.feed_words(small_bitstream.raw_bytes)
    return logic


class TestLogicReadback:
    def _read(self, logic, origin, words):
        sequence = [SYNC_WORD] if not logic.synced else []
        sequence += command_packet(Command.RCFG).encode()
        sequence += write_packet(ConfigRegister.FAR,
                                 [origin.pack()]).encode()
        sequence += ConfigPacket(Opcode.READ, ConfigRegister.FDRO,
                                 [0] * words, type2=True).encode()[:2]
        before = len(logic.readback_data)
        logic.feed_words(words_to_bytes(sequence))
        return logic.readback_data[before:]

    def test_readback_returns_written_frames(self, configured_logic,
                                             small_bitstream):
        words = VIRTEX5_SX50T.frame_words * small_bitstream.frame_count
        data = self._read(configured_logic, REGION_ORIGIN, words)
        start = small_bitstream.frame_payload_offset
        expected = small_bitstream.raw_words[
            start:start + small_bitstream.frame_payload_words]
        assert data == expected

    def test_unconfigured_frames_read_as_zero(self, configured_logic):
        data = self._read(configured_logic, far(80), 41)
        assert data == [0] * 41

    def test_read_without_rcfg_rejected(self, configured_logic):
        logic = configured_logic
        sequence = [SYNC_WORD]
        sequence += command_packet(Command.WCFG).encode()
        sequence += write_packet(ConfigRegister.FAR,
                                 [far(4).pack()]).encode()
        sequence += ConfigPacket(Opcode.READ, ConfigRegister.FDRO,
                                 [0] * 41, type2=True).encode()[:2]
        with pytest.raises(BitstreamFormatError, match="RCFG"):
            logic.feed_words(words_to_bytes(sequence))

    def test_read_from_non_fdro_rejected(self, configured_logic):
        logic = configured_logic
        sequence = [SYNC_WORD]
        sequence += command_packet(Command.RCFG).encode()
        sequence += write_packet(ConfigRegister.FAR,
                                 [far(4).pack()]).encode()
        header = (0b001 << 29) | (1 << 27) \
            | (int(ConfigRegister.FDRI) << 13) | 1
        with pytest.raises(BitstreamFormatError, match="non-readable"):
            logic.feed_words(words_to_bytes(sequence + [header]))


class TestIcapReadback:
    def test_icap_readback_roundtrip(self, small_bitstream):
        from repro.core.system import UPaRCSystem
        system = UPaRCSystem(decompressor=None)
        system.run(small_bitstream)
        system.icap.enable()
        data, duration = system.icap.readback(
            REGION_ORIGIN, small_bitstream.frame_count)
        system.icap.disable()
        start = small_bitstream.frame_payload_offset
        expected = small_bitstream.raw_words[
            start:start + small_bitstream.frame_payload_words]
        assert data == expected
        assert duration > 0

    def test_readback_does_not_disturb_payload_crc(self, small_bitstream):
        from repro.core.system import UPaRCSystem
        system = UPaRCSystem(decompressor=None)
        result = system.run(small_bitstream)
        crc_before = system.icap.payload_crc
        system.icap.enable()
        system.icap.readback(REGION_ORIGIN, 2)
        system.icap.disable()
        assert system.icap.payload_crc == crc_before
        assert result.verified

    def test_readback_requires_logic(self, sim):
        clock = Clock(sim, "clk", Frequency.from_mhz(100))
        icap = Icap(sim, VIRTEX5_SX50T, clock)
        icap.enable()
        with pytest.raises(HardwareModelError):
            icap.readback(far(4), 1)

    def test_readback_requires_enable(self, sim):
        logic = ConfigurationLogic(ConfigurationMemory(VIRTEX5_SX50T))
        clock = Clock(sim, "clk", Frequency.from_mhz(100))
        icap = Icap(sim, VIRTEX5_SX50T, clock, config_logic=logic)
        with pytest.raises(HardwareModelError):
            icap.readback(far(4), 1)


class TestHardwareSequencer:
    def test_control_cost_10x_below_microblaze(self, sim):
        clock = Clock(sim, "clk", Frequency.from_mhz(100))
        sequencer = HardwareSequencer(sim, clock)
        assert sequencer.control_duration_ps() == 120_000  # 12 cycles

    def test_invalid_costs_rejected(self, sim):
        clock = Clock(sim, "clk", Frequency.from_mhz(100))
        with pytest.raises(HardwareModelError):
            HardwareSequencer(sim, clock, control_overhead_cycles=0)
        with pytest.raises(HardwareModelError):
            HardwareSequencer(sim, clock).preload_duration_ps(-1)


class TestHardwareManagerSystem:
    def test_invalid_manager_kind_rejected(self):
        from repro.core.system import UPaRCSystem
        from repro.errors import ReconfigurationFailed
        with pytest.raises(ReconfigurationFailed):
            UPaRCSystem(manager="arm")

    def test_hardware_manager_runs_verified(self, small_bitstream):
        from repro.core.system import UPaRCSystem
        system = UPaRCSystem(decompressor=None, manager="hardware")
        result = system.run(small_bitstream)
        assert result.verified
        assert result.control_overhead_ps == 120_000

    def test_hardware_manager_improves_small_bitstream_efficiency(self):
        from repro.core.system import UPaRCSystem
        small = generate_bitstream(size=DataSize.from_kb(6.5))
        frequency = Frequency.from_mhz(362.5)
        soft = UPaRCSystem(decompressor=None).run(small,
                                                  frequency=frequency)
        hard = UPaRCSystem(decompressor=None,
                           manager="hardware").run(small,
                                                   frequency=frequency)
        assert hard.bandwidth_decimal_mbps \
            > soft.bandwidth_decimal_mbps * 1.15

    def test_hardware_manager_flattens_energy(self, paper_bitstream):
        """The Section V prediction: without active waiting the energy
        spread across frequencies shrinks."""
        from repro.core.system import UPaRCSystem

        def spread(manager):
            energies = []
            for mhz in (50, 300):
                system = UPaRCSystem(decompressor=None, manager=manager)
                result = system.run(paper_bitstream,
                                    frequency=Frequency.from_mhz(mhz))
                energies.append(result.energy.energy_uj)
            return energies[0] / energies[1]

        assert spread("hardware") < spread("microblaze")
