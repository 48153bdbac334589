""".bit file save/load round-trips."""

import pytest

from repro.bitstream.device import VIRTEX5_SX50T, VIRTEX6_LX240T
from repro.bitstream.fileio import (
    load_bit,
    roundtrip_equal,
    save_bit,
)
from repro.errors import BitstreamError, DeviceMismatchError
from repro.units import DataSize


def test_save_returns_byte_count(tmp_path, small_bitstream):
    path = tmp_path / "module.bit"
    written = save_bit(small_bitstream, path)
    assert written == len(small_bitstream.file_bytes)
    assert path.stat().st_size == written


def test_roundtrip_bit_exact(tmp_path, small_bitstream):
    path = tmp_path / "module.bit"
    save_bit(small_bitstream, path)
    loaded = load_bit(path, VIRTEX5_SX50T)
    assert roundtrip_equal(small_bitstream, loaded)
    assert loaded.raw_words == small_bitstream.raw_words
    assert loaded.header == small_bitstream.header


def test_loaded_views_match_generated(tmp_path, small_bitstream):
    path = tmp_path / "module.bit"
    save_bit(small_bitstream, path)
    loaded = load_bit(path, VIRTEX5_SX50T)
    assert loaded.frame_count == small_bitstream.frame_count
    assert loaded.frame_payload == small_bitstream.frame_payload
    assert loaded.size == small_bitstream.size


def test_loaded_size_counts_raw_bytes(tmp_path, small_bitstream):
    # size comes from the word count; it must still equal the length
    # of the stream raw_bytes builds.
    path = tmp_path / "module.bit"
    save_bit(small_bitstream, path)
    loaded = load_bit(path, VIRTEX5_SX50T)
    assert loaded.size.bytes == len(loaded.raw_bytes)
    assert loaded.size.bytes == len(small_bitstream.raw_bytes)


def test_device_check_enforced(tmp_path, small_bitstream):
    path = tmp_path / "module.bit"
    save_bit(small_bitstream, path)
    with pytest.raises(DeviceMismatchError):
        load_bit(path, VIRTEX6_LX240T)


def test_load_without_device_skips_check(tmp_path, small_bitstream):
    path = tmp_path / "module.bit"
    save_bit(small_bitstream, path)
    loaded = load_bit(path)
    assert loaded.frame_count == small_bitstream.frame_count


def test_corrupt_file_rejected(tmp_path, small_bitstream):
    path = tmp_path / "module.bit"
    save_bit(small_bitstream, path)
    blob = bytearray(path.read_bytes())
    blob[5] ^= 0xFF  # inside the magic
    path.write_bytes(bytes(blob))
    from repro.errors import BitstreamFormatError
    with pytest.raises(BitstreamFormatError):
        load_bit(path)


def test_loaded_bitstream_runs_through_uparc(tmp_path, small_bitstream):
    from repro.core.system import UPaRCSystem
    path = tmp_path / "module.bit"
    save_bit(small_bitstream, path)
    loaded = load_bit(path, VIRTEX5_SX50T)
    result = UPaRCSystem(decompressor=None).run(loaded)
    assert result.verified
    assert result.frames_written == small_bitstream.frame_count


def test_save_reload_save_stable(tmp_path, small_bitstream):
    first = tmp_path / "a.bit"
    second = tmp_path / "b.bit"
    save_bit(small_bitstream, first)
    loaded = load_bit(first, VIRTEX5_SX50T)
    save_bit(loaded, second)
    assert first.read_bytes() == second.read_bytes()
