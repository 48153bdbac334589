"""Hypothesis properties of the configuration logic.

For arbitrary frame workloads expressed as legal packet streams, the
configuration memory must end up exactly as written — and the CRC
check must catch any single corrupted payload word.  The bulk byte
path (``feed_words`` in any word-aligned chunking) must end in the
same state, or fail with the same error, as the per-word
``feed_word`` loop it replaces.
"""

from hypothesis import given, settings, strategies as st

from repro.bitstream.crc import ConfigCrc
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
from repro.bitstream.frames import BlockType, FrameAddress, region_frames
from repro.bitstream.generator import (
    frame_repair_bitstream,
    generate_bitstream,
)
from repro.fpga.config_memory import (
    ConfigurationLogic,
    ConfigurationMemory,
)
from repro.units import DataSize

DEVICE = VIRTEX5_SX50T

frame_contents = st.lists(
    st.lists(st.integers(0, 2**32 - 1),
             min_size=DEVICE.frame_words, max_size=DEVICE.frame_words),
    min_size=1, max_size=6)

origins = st.builds(
    lambda column, minor: FrameAddress(BlockType.CLB_IO_CLK, 0, 0,
                                       column, minor),
    st.integers(0, 80), st.integers(0, 30))


def build_stream(origin, frames):
    """A legal configuration stream writing ``frames`` at ``origin``."""
    crc = ConfigCrc()
    words = [SYNC_WORD]

    def emit(packet):
        encoded = packet.encode()
        words.extend(encoded)

    emit(command_packet(Command.RCRC))
    emit(write_packet(ConfigRegister.IDCODE, [DEVICE.idcode]))
    crc.update(int(ConfigRegister.IDCODE), DEVICE.idcode)
    emit(command_packet(Command.WCFG))
    crc.update(int(ConfigRegister.CMD), int(Command.WCFG))
    emit(write_packet(ConfigRegister.FAR, [origin.pack()]))
    crc.update(int(ConfigRegister.FAR), origin.pack())
    flat = [word for frame in frames for word in frame]
    emit(ConfigPacket(Opcode.WRITE, ConfigRegister.FDRI, flat,
                      type2=True))
    for word in flat:
        crc.update(int(ConfigRegister.FDRI), word)
    emit(write_packet(ConfigRegister.CRC, [crc.value]))
    emit(command_packet(Command.DESYNC))
    return words


@settings(max_examples=40, deadline=None)
@given(origins, frame_contents)
def test_frames_land_exactly_where_addressed(origin, frames):
    logic = ConfigurationLogic(ConfigurationMemory(DEVICE))
    logic.feed_words(words_to_bytes(build_stream(origin, frames)))
    assert logic.frames_written == len(frames)
    assert logic.crc_checks_passed == 1
    assert not logic.synced  # DESYNC consumed
    addresses = list(region_frames(DEVICE, origin, len(frames)))
    for address, frame in zip(addresses, frames):
        assert logic.memory.read_frame(address) == frame


@settings(max_examples=30, deadline=None)
@given(origins, frame_contents, st.data())
def test_single_word_corruption_always_caught(origin, frames, data):
    words = build_stream(origin, frames)
    flat_len = len(frames) * DEVICE.frame_words
    # The FDRI payload sits right before the trailing 4 shell words
    # (CRC header+value, CMD header+DESYNC) — corrupt one payload word.
    payload_start = len(words) - 4 - flat_len
    index = payload_start + data.draw(
        st.integers(0, flat_len - 1))
    bit = data.draw(st.integers(0, 31))
    corrupted = list(words)
    corrupted[index] ^= 1 << bit
    logic = ConfigurationLogic(ConfigurationMemory(DEVICE))
    import pytest
    from repro.errors import BitstreamFormatError
    with pytest.raises(BitstreamFormatError, match="CRC mismatch"):
        logic.feed_words(words_to_bytes(corrupted))


@settings(max_examples=20, deadline=None)
@given(origins, frame_contents)
def test_permissive_mode_still_writes_frames(origin, frames):
    logic = ConfigurationLogic(ConfigurationMemory(DEVICE),
                               strict_crc=False)
    words = build_stream(origin, frames)
    logic.feed_words(words_to_bytes(words))
    assert logic.frames_written == len(frames)


# -- bulk feed_words against the per-word feed_word reference -----------

#: Frame-repair origins reach past the device geometry (minor >= 36,
#: column >= 88, row >= 3) and sit at the end of the address cycle, so
#: the bulk frame writes take both the layout path (with wrap-around)
#: and the per-frame fallback.
def _far_fields(top, row, column, minor):
    return st.builds(lambda *fields: FrameAddress(BlockType.CLB_IO_CLK,
                                                  *fields),
                     top, row, column, minor)


wide_origins = st.one_of(
    _far_fields(st.integers(0, 1), st.integers(0, 2), st.integers(0, 87),
                st.integers(0, 35)),
    _far_fields(st.integers(0, 1), st.integers(0, 2), st.integers(88, 255),
                st.integers(0, 35)),
    _far_fields(st.integers(0, 1), st.integers(0, 2), st.integers(0, 87),
                st.integers(36, 127)),
    _far_fields(st.integers(0, 1), st.integers(3, 31), st.integers(0, 87),
                st.integers(0, 35)),
    st.just(FrameAddress(BlockType.CLB_IO_CLK, 1, 2, 87, 35)),
    st.just(FrameAddress(BlockType.BRAM_CONTENT, 1, 2, 87, 34)),
)

generated_streams = st.builds(
    lambda kb, seed: generate_bitstream(
        size=DataSize.from_kb(kb), seed=seed).raw_words,
    st.sampled_from([0.5, 1, 2.5, 4]), st.integers(0, 50))

repair_streams = st.builds(
    lambda origin, frames: frame_repair_bitstream(
        DEVICE, origin, frames).raw_words,
    wide_origins, frame_contents)


@st.composite
def nop_payload_streams(draw):
    """A stream with a NOP packet carrying padding before some header."""
    words = list(draw(st.one_of(generated_streams, repair_streams)))
    headers = [index for index, role in packet_roles(words).items()
               if role == "header"]
    padding = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                            max_size=90))
    at = draw(st.sampled_from(headers))
    nop = (0b001 << 29) | (int(Opcode.NOP) << 27) | len(padding)
    return words[:at] + [nop] + padding + words[at:]


streams = st.one_of(generated_streams, repair_streams,
                    nop_payload_streams())


def packet_roles(words):
    """Word index -> ``"header"``, ``"padding"`` (NOP payload) or the
    register a write payload word goes to."""
    roles = {}
    index = words.index(SYNC_WORD) + 1
    register = None
    while index < len(words):
        word = words[index]
        if word >> 29 == 0b001:
            register = ConfigRegister((word >> 13) & 0x3FFF)
            count = word & 0x7FF
        elif word >> 29 == 0b010:
            count = word & 0x7FFFFFF
        else:
            break
        nop = (word >> 27) & 0b11 == int(Opcode.NOP)
        roles[index] = "header"
        for payload in range(index + 1, min(index + 1 + count, len(words))):
            roles[payload] = "padding" if nop else register
        index += 1 + count
    return roles


def outcome(feed):
    """Run ``feed`` on fresh logic: (error type and message, end state)."""
    logic = ConfigurationLogic(ConfigurationMemory(DEVICE))
    try:
        feed(logic)
        error = None
    except Exception as exc:  # compared by type and message below
        error = (type(exc), str(exc))
    state = (dict(logic.memory._frames), logic.frames_written,
             logic.crc_checks_passed, logic._far, logic.sync_count,
             logic.desync_count, bytes(logic._frame_buffer))
    return error, state


def assert_bulk_matches_per_word(words, cuts):
    data = words_to_bytes(words)
    bounds = [0] + sorted(set(cuts)) + [len(words)]

    def per_word(logic):
        for word in words:
            logic.feed_word(word)

    def chunked(logic):
        for start, stop in zip(bounds, bounds[1:]):
            logic.feed_words(data[4 * start:4 * stop])

    assert outcome(chunked) == outcome(per_word)


@st.composite
def chunked_streams(draw, mutate):
    words = list(draw(streams))
    if mutate:
        roles = packet_roles(words)
        targets = {
            "header": [i for i, r in roles.items() if r == "header"],
            "idcode": [i for i, r in roles.items()
                       if r is ConfigRegister.IDCODE],
            "crc": [i for i, r in roles.items() if r is ConfigRegister.CRC],
            "fdri": [i for i, r in roles.items()
                     if r is ConfigRegister.FDRI],
        }
        kind = draw(st.sampled_from(sorted(
            name for name, indices in targets.items() if indices)))
        index = draw(st.sampled_from(targets[kind]))
        words[index] ^= draw(st.integers(1, 2**32 - 1))
    cuts = draw(st.lists(st.integers(0, len(words)), max_size=12))
    return words, cuts


@settings(max_examples=100, deadline=None)
@given(chunked_streams(mutate=False))
def test_bulk_feed_matches_per_word_feed(case):
    assert_bulk_matches_per_word(*case)


@settings(max_examples=100, deadline=None)
@given(chunked_streams(mutate=True))
def test_mutated_stream_fails_alike_in_bulk_and_per_word(case):
    assert_bulk_matches_per_word(*case)
