"""CRC-32C and the configuration CRC register."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import accel
from repro.bitstream.crc import ConfigCrc, crc32c


class TestCrc32c:
    def test_known_vector(self):
        # The canonical CRC-32C check value for "123456789".
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert crc32c(b"") == 0

    def test_incremental_equals_whole(self):
        data = b"the quick brown fox"
        split = 7
        partial = crc32c(data[:split])
        # Incremental continuation must equal the one-shot result.
        assert crc32c(data[split:], partial) == crc32c(data)

    def test_sensitivity_to_single_bit(self):
        base = crc32c(b"\x00" * 64)
        flipped = crc32c(b"\x00" * 63 + b"\x01")
        assert base != flipped


class TestConfigCrc:
    def test_initial_value_zero(self):
        assert ConfigCrc().value == 0

    def test_update_changes_value(self):
        crc = ConfigCrc()
        crc.update(2, 0xDEADBEEF)
        assert crc.value != 0

    def test_order_sensitive(self):
        first = ConfigCrc()
        first.update(2, 0x11111111)
        first.update(2, 0x22222222)
        second = ConfigCrc()
        second.update(2, 0x22222222)
        second.update(2, 0x11111111)
        assert first.value != second.value

    def test_register_address_included(self):
        fdri = ConfigCrc()
        fdri.update(2, 0x12345678)
        far = ConfigCrc()
        far.update(1, 0x12345678)
        assert fdri.value != far.value

    def test_reset_is_rcrc(self):
        crc = ConfigCrc()
        crc.update(4, 7)
        crc.reset()
        assert crc.value == 0

    def test_check(self):
        crc = ConfigCrc()
        crc.update(2, 42)
        expected = crc.value
        assert crc.check(expected)
        assert not crc.check(expected ^ 1)


class TestBlockFold:
    """``update_block_bytes``: the bulk FDRI fold on every backend."""

    @pytest.mark.parametrize("backend", accel.available_backends())
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                    max_size=64),
           st.integers(min_value=0, max_value=0x1F),
           st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_block_equals_per_word_updates(self, backend, words, address,
                                           prefix):
        # A FAR write first, so the fold chains from a nonzero register.
        per_word, bulk = ConfigCrc(), ConfigCrc()
        per_word.update(1, prefix)
        bulk.update(1, prefix)
        for word in words:
            per_word.update(address, word)
        packed = b"".join(word.to_bytes(4, "big") for word in words)
        with accel.using(backend):
            bulk.update_block_bytes(address, packed)
        assert bulk.value == per_word.value

    @pytest.mark.parametrize("backend", accel.available_backends())
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 6, 7])
    def test_partial_word_raises(self, backend, length):
        # A partial trailing word is an error, never silently dropped.
        crc = ConfigCrc()
        crc.update(2, 0x12345678)
        before = crc.value
        with accel.using(backend):
            with pytest.raises(ValueError, match="whole 4-byte words"):
                crc.update_block_bytes(2, bytes(length))
            with pytest.raises(ValueError, match="whole 4-byte words"):
                accel.crc32c_words(bytes(length), 2, before)
        assert crc.value == before

    @pytest.mark.parametrize("backend", accel.available_backends())
    def test_empty_block_leaves_crc_unchanged(self, backend):
        with accel.using(backend):
            assert accel.crc32c_words(b"", 2, 0xDEADBEEF) == 0xDEADBEEF
            crc = ConfigCrc()
            crc.update(2, 42)
            before = crc.value
            crc.update_block_bytes(2, b"")
        assert crc.value == before

    @pytest.mark.parametrize("backend", accel.available_backends())
    @pytest.mark.parametrize("address", [-1, 256])
    def test_address_must_be_a_byte(self, backend, address):
        with accel.using(backend):
            with pytest.raises(ValueError, match="outside 0..255"):
                accel.crc32c_words(bytes(8), address)

    @pytest.mark.parametrize("backend", accel.available_backends())
    @pytest.mark.parametrize("crc", [-1, 1 << 32, 1 << 40])
    def test_seed_must_be_32_bits(self, backend, crc):
        with accel.using(backend):
            with pytest.raises(ValueError, match="outside 0..0xFFFFFFFF"):
                accel.crc32c(b"", crc)
            with pytest.raises(ValueError, match="outside 0..0xFFFFFFFF"):
                accel.crc32c_words(bytes(8), 2, crc)
