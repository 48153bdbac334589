"""Configuration frame addressing (FAR).

The Frame Address Register selects which column of configuration
memory a frame write lands in.  We implement the Virtex-5 FAR layout
(UG191 table 6-10) — block type / top-bottom / row / column / minor —
with pack/unpack round-tripping, plus a linear enumeration used by the
generator to lay a partial region out as consecutive frames.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.bitstream.device import DeviceInfo
from repro.errors import BitstreamFormatError


class BlockType(enum.IntEnum):
    """FAR block-type field values (Virtex-5)."""

    CLB_IO_CLK = 0
    BRAM_CONTENT = 1
    BRAM_INTERCONNECT = 2  # virtex-4 only; kept for the baseline device


# Field widths of the Virtex-5 FAR (LSB first): minor 7, column 8,
# row 5, top/bottom 1, block type 3.
_MINOR_BITS = 7
_COLUMN_BITS = 8
_ROW_BITS = 5
_TOP_BITS = 1
_TYPE_BITS = 3

_MINOR_SHIFT = 0
_COLUMN_SHIFT = _MINOR_BITS
_ROW_SHIFT = _COLUMN_SHIFT + _COLUMN_BITS
_TOP_SHIFT = _ROW_SHIFT + _ROW_BITS
_TYPE_SHIFT = _TOP_SHIFT + _TOP_BITS


@dataclass(frozen=True, order=True)
class FrameAddress:
    """A decoded frame address."""

    block_type: BlockType
    top: int       # 0 = top half, 1 = bottom half
    row: int
    column: int
    minor: int

    def __post_init__(self) -> None:
        checks = (
            (self.top, _TOP_BITS, "top"),
            (self.row, _ROW_BITS, "row"),
            (self.column, _COLUMN_BITS, "column"),
            (self.minor, _MINOR_BITS, "minor"),
        )
        for value, bits, label in checks:
            if not 0 <= value < (1 << bits):
                raise BitstreamFormatError(
                    f"FAR field {label}={value} outside {bits}-bit range"
                )

    def pack(self) -> int:
        """Encode to the 32-bit FAR register value."""
        return (
            (int(self.block_type) << _TYPE_SHIFT)
            | (self.top << _TOP_SHIFT)
            | (self.row << _ROW_SHIFT)
            | (self.column << _COLUMN_SHIFT)
            | (self.minor << _MINOR_SHIFT)
        )

    @classmethod
    def unpack(cls, raw: int) -> "FrameAddress":
        """Decode a 32-bit FAR register value."""
        if not 0 <= raw < (1 << 32):
            raise BitstreamFormatError(f"FAR value {raw:#x} is not 32-bit")
        block = (raw >> _TYPE_SHIFT) & ((1 << _TYPE_BITS) - 1)
        try:
            block_type = BlockType(block)
        except ValueError:
            raise BitstreamFormatError(
                f"FAR block type {block} is not defined"
            ) from None
        return cls(
            block_type=block_type,
            top=(raw >> _TOP_SHIFT) & ((1 << _TOP_BITS) - 1),
            row=(raw >> _ROW_SHIFT) & ((1 << _ROW_BITS) - 1),
            column=(raw >> _COLUMN_SHIFT) & ((1 << _COLUMN_BITS) - 1),
            minor=(raw >> _MINOR_SHIFT) & ((1 << _MINOR_BITS) - 1),
        )

    def next_in(self, device: DeviceInfo) -> "FrameAddress":
        """The frame address following this one in device order.

        Advances minor, then column, then row, then top/bottom —
        the auto-increment order the configuration logic applies when
        consecutive frames stream through FDRI.  For in-geometry
        addresses this is a lookup in the device's memoised
        :class:`FrameLayout` (one address table per device, built
        once instead of per generated bitstream); out-of-geometry
        addresses (a parsed FAR can carry any field values) fall back
        to the arithmetic stepping.
        """
        successor = frame_layout(device, self.block_type).successor(self)
        if successor is not None:
            return successor
        return self._next_arithmetic(device)

    def _next_arithmetic(self, device: DeviceInfo) -> "FrameAddress":
        """Field-arithmetic successor (the FrameLayout ground truth)."""
        minor = self.minor + 1
        column, row, top = self.column, self.row, self.top
        if minor >= device.minor_frames_clb:
            minor = 0
            column += 1
            if column >= device.columns:
                column = 0
                row += 1
                if row >= max(1, device.rows // 2):
                    row = 0
                    top ^= 1
        return FrameAddress(self.block_type, top, row, column, minor)


class FrameLayout:
    """Memoised linear frame order for one device and block type.

    Walking a region frame by frame calls ``next_in`` once per frame;
    before this table existed, every generated bitstream re-ran the
    field arithmetic (and ``FrameAddress`` construction with its field
    validation) for each of its thousands of frames.  The layout walks
    the device's full address cycle *once* with the arithmetic rule —
    so the table is correct by construction — and keeps it twice:
    ``addresses`` as :class:`FrameAddress` values and ``packed`` as
    their FAR register values (the keys of configuration memory).

    The cycle is plain nesting — minor inside column inside row
    inside top/bottom — so an in-geometry address's index is field
    arithmetic (:meth:`position`); no per-address dictionary is kept.
    """

    __slots__ = ("device", "block_type", "addresses", "packed",
                 "_minors", "_columns", "_rows")

    def __init__(self, device: DeviceInfo, block_type: BlockType) -> None:
        self.device = device
        self.block_type = block_type
        self._minors = device.minor_frames_clb
        self._columns = device.columns
        self._rows = max(1, device.rows // 2)
        cycle = self._minors * self._columns * self._rows * 2
        addresses = []
        address = FrameAddress(block_type, top=0, row=0, column=0, minor=0)
        for _ in range(cycle):
            addresses.append(address)
            address = address._next_arithmetic(device)
        self.addresses: Tuple[FrameAddress, ...] = tuple(addresses)
        self.packed: Tuple[int, ...] = tuple(
            entry.pack() for entry in addresses)

    def position(self, address: FrameAddress) -> Optional[int]:
        """Index of ``address`` in the cycle, or None if out of geometry."""
        if (address.block_type != self.block_type
                or address.minor >= self._minors
                or address.column >= self._columns
                or address.row >= self._rows):
            return None
        return (((address.top * self._rows + address.row) * self._columns
                 + address.column) * self._minors + address.minor)

    def successor(self, address: FrameAddress) -> Optional[FrameAddress]:
        """The next in-geometry address, or None if out of geometry."""
        index = self.position(address)
        if index is None:
            return None
        return self.addresses[(index + 1) % len(self.addresses)]

    def __len__(self) -> int:
        return len(self.addresses)


_LAYOUTS: Dict[Tuple[DeviceInfo, BlockType], FrameLayout] = {}


def frame_layout(device: DeviceInfo,
                 block_type: BlockType = BlockType.CLB_IO_CLK) -> FrameLayout:
    """The memoised :class:`FrameLayout` for ``device``/``block_type``.

    Keyed by the (frozen, hashable) :class:`DeviceInfo` value itself:
    two equal device descriptions share one layout, and a device with
    different frame geometry always gets its own — the memo can never
    serve stale state because its key objects are immutable.
    """
    key = (device, block_type)
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = FrameLayout(device, block_type)
    return layout


def region_frames(device: DeviceInfo, start: FrameAddress,
                  count: int) -> Iterator[FrameAddress]:
    """Enumerate ``count`` consecutive frame addresses from ``start``."""
    if count < 0:
        raise ValueError("frame count must be non-negative")
    address = start
    for _ in range(count):
        yield address
        address = address.next_in(device)
