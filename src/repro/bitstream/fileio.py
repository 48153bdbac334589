""".bit file I/O: persist and reload partial bitstreams.

Round-trips the same on-disk format the BIT preamble describes, so
generated bitstreams can be stored in a repository's asset directory,
shipped to a board-deployment flow, or exchanged with external tools
that read standard ``.bit`` files (the raw section is a valid
type-1/type-2 packet stream).

``load_bit`` returns a :class:`LoadedBitstream` exposing the same
surface the simulator consumes (``raw_words`` / ``raw_bytes`` /
``file_bytes`` / ``size``), so everything that accepts a generated
:class:`~repro.bitstream.generator.PartialBitstream` also accepts a
loaded one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.bitstream.device import DeviceInfo
from repro.bitstream.format import (
    ConfigRegister,
    Opcode,
    words_to_bytes,
)
from repro.bitstream.generator import PartialBitstream
from repro.bitstream.header import BitstreamHeader
from repro.bitstream.parser import BitstreamParser
from repro.errors import BitstreamError
from repro.units import DataSize

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class LoadedBitstream:
    """A bitstream reconstructed from a .bit file."""

    header: BitstreamHeader
    raw_words: List[int]
    frame_count: int
    frame_payload_offset: int
    frame_payload_words: int
    #: Serialized FDRI payload sliced straight from the file blob
    #: (always equal to packing the payload span of ``raw_words``);
    #: ``None`` means derive on demand.
    payload_data: Optional[bytes] = None

    @property
    def raw_bytes(self) -> bytes:
        return words_to_bytes(self.raw_words)

    @property
    def file_bytes(self) -> bytes:
        return self.header.encode() + self.raw_bytes

    @property
    def size(self) -> DataSize:
        return DataSize(4 * len(self.raw_words))

    @property
    def frame_payload(self) -> bytes:
        if self.payload_data is not None:
            return self.payload_data
        start = self.frame_payload_offset
        stop = start + self.frame_payload_words
        return words_to_bytes(self.raw_words[start:stop])


def save_bit(bitstream, path: PathLike) -> int:
    """Write a bitstream (generated or loaded) as a .bit file.

    Returns the byte count written.
    """
    blob = bitstream.file_bytes
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def load_bit(path: PathLike,
             device: Optional[DeviceInfo] = None) -> LoadedBitstream:
    """Read and validate a .bit file.

    ``device`` enables the IDCODE/part-name check (recommended when
    the target device is known).
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    parsed = BitstreamParser(device).parse(blob)

    # Locate the FDRI payload (the frame data) inside the word stream
    # so the loaded object exposes the same views a generated one does.
    frame_words_per_frame = (device.frame_words if device is not None
                             else 41)
    raw_words = parsed.raw_words
    payload_offset, payload_words = _find_fdri_span(raw_words)
    if payload_words % frame_words_per_frame:
        raise BitstreamError(
            f"FDRI payload of {payload_words} words is not a whole "
            f"number of {frame_words_per_frame}-word frames"
        )
    # The raw word stream is the tail of the file blob (the parser
    # decodes it from there), so the FDRI payload bytes can be sliced
    # out directly instead of re-packed from the word list later.
    raw_start = len(blob) - len(parsed.raw)
    start = raw_start + payload_offset * 4
    return LoadedBitstream(
        header=parsed.header,
        raw_words=raw_words,
        frame_count=payload_words // frame_words_per_frame,
        frame_payload_offset=payload_offset,
        frame_payload_words=payload_words,
        payload_data=blob[start:start + payload_words * 4],
    )


def _find_fdri_span(words: List[int]) -> tuple:
    """(word offset, word count) of the first FDRI write payload."""
    index = 0
    while index < len(words):
        word = words[index]
        packet_type = word >> 29
        if packet_type == 0b001:
            register = (word >> 13) & 0x3FFF
            opcode = (word >> 27) & 0b11
            count = word & 0x7FF
            if (register == int(ConfigRegister.FDRI)
                    and opcode == int(Opcode.WRITE)):
                if count > 0:
                    return index + 1, count
                # type-2 continuation follows
                if index + 1 < len(words) \
                        and words[index + 1] >> 29 == 0b010:
                    count2 = words[index + 1] & ((1 << 27) - 1)
                    return index + 2, count2
            index += 1 + count
        else:
            index += 1
    raise BitstreamError("no FDRI write found in bitstream")


def roundtrip_equal(first: PartialBitstream,
                    second: LoadedBitstream) -> bool:
    """Bit-exact comparison helper used by tests."""
    return first.file_bytes == second.file_bytes
