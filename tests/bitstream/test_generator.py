"""Synthetic bitstream generator: structure, size, determinism."""

import pytest

from repro.bitstream.device import VIRTEX6_LX240T
from repro.bitstream.format import (
    ConfigRegister,
    Opcode,
    PacketDecoder,
    SYNC_WORD,
)
from repro.bitstream.generator import BitstreamSpec, generate_bitstream
from repro.errors import BitstreamError
from repro.units import DataSize


def test_size_close_to_requested(small_bitstream):
    requested = DataSize.from_kb(8)
    # Frame quantization bounds the error to one frame.
    assert abs(small_bitstream.size.bytes - requested.bytes) \
        <= small_bitstream.spec.device.frame_bytes + 64


def test_deterministic_for_same_seed():
    first = generate_bitstream(size=DataSize.from_kb(8), seed=99)
    second = generate_bitstream(size=DataSize.from_kb(8), seed=99)
    assert first.raw_bytes == second.raw_bytes


def test_different_seeds_differ():
    first = generate_bitstream(size=DataSize.from_kb(8), seed=1)
    second = generate_bitstream(size=DataSize.from_kb(8), seed=2)
    assert first.raw_bytes != second.raw_bytes


def test_contains_sync_word(small_bitstream):
    assert SYNC_WORD in small_bitstream.raw_words


def test_packets_decode_and_carry_idcode(small_bitstream):
    words = small_bitstream.raw_words
    sync = words.index(SYNC_WORD)
    packets = PacketDecoder(words[sync + 1:]).decode_all()
    idcodes = [p.payload[0] for p in packets
               if p.register is ConfigRegister.IDCODE
               and p.opcode is Opcode.WRITE]
    assert idcodes == [small_bitstream.spec.device.idcode]


def test_fdri_payload_is_whole_frames(small_bitstream):
    device = small_bitstream.spec.device
    assert small_bitstream.frame_payload_words \
        == small_bitstream.frame_count * device.frame_words


def test_frame_payload_view_matches_offset(small_bitstream):
    payload = small_bitstream.frame_payload
    assert len(payload) == small_bitstream.frame_payload_words * 4


def test_file_bytes_has_preamble(small_bitstream):
    file_bytes = small_bitstream.file_bytes
    assert len(file_bytes) > len(small_bitstream.raw_bytes)
    assert file_bytes.endswith(small_bitstream.raw_bytes)


def test_utilization_zero_gives_blank_frames():
    blank = generate_bitstream(size=DataSize.from_kb(8), utilization=0.0)
    # Every frame word is zero.
    assert set(blank.frame_payload) == {0}


def test_low_utilization_more_compressible():
    from repro.compress import RleCodec
    dense = generate_bitstream(size=DataSize.from_kb(16), utilization=1.0)
    sparse = generate_bitstream(size=DataSize.from_kb(16), utilization=0.3)
    codec = RleCodec()
    dense_ratio = codec.measure(dense.raw_bytes).ratio_percent
    sparse_ratio = codec.measure(sparse.raw_bytes).ratio_percent
    assert sparse_ratio > dense_ratio


def test_other_device_supported():
    bitstream = generate_bitstream(size=DataSize.from_kb(8),
                                   device=VIRTEX6_LX240T)
    assert bitstream.spec.device is VIRTEX6_LX240T
    assert bitstream.frame_payload_words % 81 == 0


def test_invalid_utilization_rejected():
    with pytest.raises(BitstreamError):
        BitstreamSpec(utilization=1.5)


def test_weights_must_sum_to_one():
    with pytest.raises(BitstreamError):
        BitstreamSpec(zero_run_weight=0.9, motif_run_weight=0.9,
                      copy_weight=0.0, sparse_weight=0.0,
                      dense_weight=0.0)


def test_zero_size_rejected():
    with pytest.raises(BitstreamError):
        BitstreamSpec(size=DataSize(0))


@pytest.mark.parametrize("overrides", [
    {"motif_pool": -3},
    {"motif_pool": 0},
    {"motif_pool": -1, "motif_run_weight": 0.0, "sparse_weight": 0.6025},
], ids=["negative", "empty-with-motif-weight", "negative-no-weight"])
def test_unusable_motif_pool_rejected(overrides):
    # Before the check these failed deep in the planner, with
    # IndexError: Cannot choose from an empty sequence.
    with pytest.raises(BitstreamError, match="motif_pool"):
        generate_bitstream(size=DataSize.from_kb(8), **overrides)


def test_empty_motif_pool_without_motif_weight_generates():
    # No motif draw ever happens, so an empty vocabulary is fine.
    bitstream = generate_bitstream(size=DataSize.from_kb(8), motif_pool=0,
                                   motif_run_weight=0.0,
                                   sparse_weight=0.6025)
    assert bitstream.frame_count > 0
    assert bitstream == generate_bitstream(
        size=DataSize.from_kb(8), motif_pool=0, motif_run_weight=0.0,
        sparse_weight=0.6025)


def test_header_declares_payload_length(small_bitstream):
    assert small_bitstream.header.payload_length \
        == len(small_bitstream.raw_bytes)
