"""Configuration CRC (the bitstream's CRC register check).

Virtex-5 configuration logic accumulates a CRC-32C (Castagnoli
polynomial, as UG191 specifies) over every configuration write — the
register address bits followed by the data bits — and compares it with
the value written to the CRC register at the end of the bitstream; a
mismatch aborts configuration.

We implement CRC-32C bit-exactly (table-driven, reflected) and define
the accumulation convention used consistently by the generator and
the configuration-logic model: for each register write, update over
the 4 data bytes (big-endian) followed by one byte carrying the
register address.  (The silicon interleaves address and data bits at
the shift-register level; any fixed convention preserves the checked
property — detection of corrupted/mis-sequenced writes.)

The byte-level folding is a :mod:`repro.accel` kernel: the pure
backend keeps the slicing-by-8 table walk, the native backend runs
the same tables in C.  Both are bit-identical.  This CRC runs over
every FDRI word of every simulated reconfiguration, but as one bulk
fold per FDRI chunk (:meth:`ConfigCrc.update_block_bytes`), not once
per word: the ``accel.crc32c_words`` kernel folds each data word and
its address byte straight from the packed payload (natively by
slicing over five bytes, with no interleaved copy built).  The
single register writes (:meth:`ConfigCrc.update`, a few per
bitstream) stay on ``accel.crc32c``.
"""

from __future__ import annotations

from repro import accel

__all__ = ["ConfigCrc", "crc32c"]


def crc32c(data: bytes, crc: int = 0) -> int:
    """Plain CRC-32C over a byte string (incremental via ``crc``)."""
    return accel.crc32c(data, crc)


class ConfigCrc:
    """The configuration logic's running CRC register."""

    def __init__(self) -> None:
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        """The RCRC command."""
        self._value = 0

    def update(self, register_address: int, word: int) -> None:
        """Fold one register write into the CRC."""
        blob = word.to_bytes(4, "big") + bytes([register_address & 0x1F])
        self._value = accel.crc32c(blob, self._value)

    def update_block_bytes(self, register_address: int,
                           packed: bytes) -> None:
        """Fold consecutive writes of the big-endian ``packed`` words.

        Bit-identical to calling :meth:`update` once per word, in one
        :func:`repro.accel.crc32c_words` call.  ``packed`` must hold
        whole words; a partial word raises :class:`ValueError`.
        """
        self._value = accel.crc32c_words(packed, register_address & 0x1F,
                                         self._value)

    def check(self, expected: int) -> bool:
        """The CRC-register write comparison."""
        return self._value == expected
