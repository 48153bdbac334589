"""Bitstream parser — the Manager's preamble/packet reader.

Section III-A-1: the Manager "read[s] the bitstream file in the
external memory, parsing the preamble of the partial bitstream and
then loading bitstream size followed by the configuration data into
the BRAM".  This module is that parsing step: it validates the BIT
preamble, checks the device IDCODE, locates the sync word, and exposes
the raw configuration stream to preload, as the big-endian bytes
that follow the preamble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.bitstream.device import DeviceInfo
from repro.bitstream.format import (
    ConfigPacket,
    ConfigRegister,
    Opcode,
    PacketDecoder,
    SYNC_WORD,
    bytes_to_words,
)
from repro.bitstream.header import BitstreamHeader
from repro.errors import BitstreamFormatError, DeviceMismatchError
from repro.units import DataSize

_SYNC_BYTES = SYNC_WORD.to_bytes(4, "big")


@dataclass
class ParsedBitstream:
    """Result of parsing a .bit file."""

    header: BitstreamHeader
    raw: bytes                    # everything after the preamble
    sync_index: int               # word index of the sync word
    packets: List[ConfigPacket]   # decoded packets after sync
    idcode: Optional[int]

    @property
    def raw_words(self) -> List[int]:
        """The configuration stream as 32-bit words (derived on demand)."""
        return bytes_to_words(self.raw)

    @property
    def size(self) -> DataSize:
        """Size of the configuration stream (what BRAM must hold)."""
        return DataSize(len(self.raw))

    @property
    def frame_data_words(self) -> int:
        """Total FDRI payload words (the actual frame data volume)."""
        return sum(len(packet.payload) for packet in self.packets
                   if packet.register is ConfigRegister.FDRI
                   and packet.opcode is Opcode.WRITE)


class BitstreamParser:
    """Parses .bit files, optionally validating the target device."""

    def __init__(self, device: Optional[DeviceInfo] = None,
                 decode_packets: bool = True) -> None:
        self._device = device
        self._decode_packets = decode_packets

    def parse(self, file_bytes: bytes) -> ParsedBitstream:
        header, offset = BitstreamHeader.decode(file_bytes)
        raw = file_bytes[offset:]
        if len(raw) != header.payload_length:
            raise BitstreamFormatError(
                f"preamble declares {header.payload_length} raw bytes but "
                f"{len(raw)} follow"
            )
        if len(raw) % 4:
            raise BitstreamFormatError(
                f"byte stream length {len(raw)} is not word aligned"
            )
        sync_index = self._find_sync(raw)
        packets: List[ConfigPacket] = []
        idcode: Optional[int] = None
        if self._decode_packets:
            decoder = PacketDecoder(bytes_to_words(raw[4 * sync_index + 4:]))
            packets = [packet for packet in decoder.decode_all()
                       if packet.opcode is not Opcode.NOP or packet.payload]
            idcode = self._extract_idcode(packets)
            self._check_device(header, idcode)
        return ParsedBitstream(
            header=header,
            raw=raw,
            sync_index=sync_index,
            packets=packets,
            idcode=idcode,
        )

    @staticmethod
    def _find_sync(raw: bytes) -> int:
        """Word index of the first word-aligned sync pattern."""
        position = raw.find(_SYNC_BYTES)
        while position >= 0 and position % 4:
            position = raw.find(_SYNC_BYTES, position + 1)
        if position < 0:
            raise BitstreamFormatError("sync word 0xAA995566 not found")
        return position // 4

    @staticmethod
    def _extract_idcode(packets: List[ConfigPacket]) -> Optional[int]:
        for packet in packets:
            if (packet.register is ConfigRegister.IDCODE
                    and packet.opcode is Opcode.WRITE and packet.payload):
                return packet.payload[0]
        return None

    def _check_device(self, header: BitstreamHeader,
                      idcode: Optional[int]) -> None:
        if self._device is None:
            return
        if idcode is not None and idcode != self._device.idcode:
            raise DeviceMismatchError(
                f"bitstream IDCODE {idcode:#010x} does not match device "
                f"{self._device.name} ({self._device.idcode:#010x})"
            )
        declared = header.part_name.lower()
        expected = self._device.name.lower()
        if declared and expected not in declared and declared not in expected:
            raise DeviceMismatchError(
                f"bitstream targets part {header.part_name!r}, device is "
                f"{self._device.name}"
            )
