"""Frame-address packing and enumeration."""

import dataclasses

import pytest

from repro.bitstream.device import VIRTEX4_FX60, VIRTEX5_SX50T, VIRTEX6_LX240T
from repro.bitstream.frames import (
    BlockType,
    FrameAddress,
    frame_layout,
    region_frames,
)
from repro.errors import BitstreamFormatError


def test_pack_unpack_roundtrip():
    address = FrameAddress(BlockType.CLB_IO_CLK, top=1, row=3,
                           column=17, minor=5)
    assert FrameAddress.unpack(address.pack()) == address


def test_pack_zero():
    assert FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, 0).pack() == 0


def test_pack_field_positions():
    address = FrameAddress(BlockType.BRAM_CONTENT, top=0, row=0,
                           column=0, minor=1)
    raw = address.pack()
    assert raw & 0x7F == 1                 # minor in low bits
    assert (raw >> 21) & 0b111 == 1        # block type field


def test_field_range_enforced():
    with pytest.raises(BitstreamFormatError):
        FrameAddress(BlockType.CLB_IO_CLK, top=2, row=0, column=0, minor=0)
    with pytest.raises(BitstreamFormatError):
        FrameAddress(BlockType.CLB_IO_CLK, top=0, row=32, column=0, minor=0)
    with pytest.raises(BitstreamFormatError):
        FrameAddress(BlockType.CLB_IO_CLK, top=0, row=0, column=256, minor=0)
    with pytest.raises(BitstreamFormatError):
        FrameAddress(BlockType.CLB_IO_CLK, top=0, row=0, column=0, minor=128)


def test_unpack_invalid_block_type():
    with pytest.raises(BitstreamFormatError):
        FrameAddress.unpack(0b111 << 21)


def test_unpack_oversized_raises():
    with pytest.raises(BitstreamFormatError):
        FrameAddress.unpack(1 << 32)


def test_next_in_advances_minor():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4, 0)
    successor = start.next_in(VIRTEX5_SX50T)
    assert successor.minor == 1
    assert successor.column == 4


def test_next_in_wraps_minor_into_column():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 4,
                         VIRTEX5_SX50T.minor_frames_clb - 1)
    successor = start.next_in(VIRTEX5_SX50T)
    assert successor.minor == 0
    assert successor.column == 5


def test_next_in_wraps_column_into_row():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0,
                         VIRTEX5_SX50T.columns - 1,
                         VIRTEX5_SX50T.minor_frames_clb - 1)
    successor = start.next_in(VIRTEX5_SX50T)
    assert successor.column == 0
    assert successor.row == 1


def test_region_frames_counts_and_is_strictly_advancing():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, 0)
    frames = list(region_frames(VIRTEX5_SX50T, start, 100))
    assert len(frames) == 100
    assert len({frame.pack() for frame in frames}) == 100


def test_region_frames_negative_count():
    start = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        list(region_frames(VIRTEX5_SX50T, start, -1))


def test_frame_layout_memoised_per_device():
    assert frame_layout(VIRTEX5_SX50T) is frame_layout(VIRTEX5_SX50T)
    assert frame_layout(VIRTEX5_SX50T) is not frame_layout(VIRTEX4_FX60)


def test_frame_layout_keyed_by_device_value_not_object():
    # DeviceInfo is frozen, so the memo key is the device's *value*:
    # an equal copy shares the table, a geometry change gets its own.
    clone = dataclasses.replace(VIRTEX5_SX50T)
    assert clone is not VIRTEX5_SX50T
    assert frame_layout(clone) is frame_layout(VIRTEX5_SX50T)
    narrower = dataclasses.replace(VIRTEX5_SX50T, columns=40)
    layout = frame_layout(narrower)
    assert layout is not frame_layout(VIRTEX5_SX50T)
    assert len(layout) < len(frame_layout(VIRTEX5_SX50T))


def test_frame_layout_successor_matches_arithmetic():
    address = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, 0)
    layout = frame_layout(VIRTEX5_SX50T)
    for _ in range(3 * VIRTEX5_SX50T.minor_frames_clb + 5):
        expected = address._next_arithmetic(VIRTEX5_SX50T)
        assert layout.successor(address) == expected
        assert address.next_in(VIRTEX5_SX50T) == expected
        address = expected


def test_next_in_outside_geometry_falls_back_to_arithmetic():
    # An address past the device's column range is not in the layout
    # table; next_in must still advance it (arithmetic fallback).
    address = FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 200, 0)
    layout = frame_layout(VIRTEX5_SX50T)
    assert layout.successor(address) is None
    assert address.next_in(VIRTEX5_SX50T) == \
        address._next_arithmetic(VIRTEX5_SX50T)


@pytest.mark.parametrize("device", [VIRTEX5_SX50T, VIRTEX6_LX240T,
                                    VIRTEX4_FX60], ids=lambda d: d.name)
@pytest.mark.parametrize("block_type", list(BlockType),
                         ids=lambda b: b.name)
def test_frame_layout_position_and_successor_cover_the_cycle(device,
                                                             block_type):
    layout = frame_layout(device, block_type)
    for index, address in enumerate(layout.addresses):
        assert layout.position(address) == index
        assert layout.packed[index] == address.pack()
        expected = address._next_arithmetic(device)
        assert layout.successor(address) == expected
        assert address.next_in(device) == expected


@pytest.mark.parametrize("device", [VIRTEX5_SX50T, VIRTEX6_LX240T,
                                    VIRTEX4_FX60], ids=lambda d: d.name)
def test_frame_layout_position_rejects_out_of_geometry(device):
    layout = frame_layout(device)
    rows = max(1, device.rows // 2)
    outside = [
        FrameAddress(BlockType.CLB_IO_CLK, 0, 0, 0, device.minor_frames_clb),
        FrameAddress(BlockType.CLB_IO_CLK, 0, 0, device.columns, 0),
        FrameAddress(BlockType.CLB_IO_CLK, 1, rows, 0, 0),
        FrameAddress(BlockType.CLB_IO_CLK, 0, 31, 255, 127),
    ]
    for address in outside:
        assert layout.position(address) is None
        assert layout.successor(address) is None
        assert address.next_in(device) == address._next_arithmetic(device)
    other = FrameAddress(BlockType.BRAM_CONTENT, 0, 0, 0, 0)
    assert layout.position(other) is None
    assert layout.successor(other) is None
    assert frame_layout(device, BlockType.BRAM_CONTENT).position(other) == 0
