"""Unit tests for the bit-manipulation helpers."""

import pytest

from repro.errors import EncodingError
from repro.isa import bits


class TestSignedness:
    def test_u32_wraps_negative(self):
        assert bits.u32(-1) == 0xFFFFFFFF

    def test_u32_wraps_overflow(self):
        assert bits.u32(1 << 32) == 0

    def test_to_signed_positive(self):
        assert bits.to_signed(5) == 5

    def test_to_signed_negative(self):
        assert bits.to_signed(0xFFFFFFFF) == -1

    def test_to_signed_boundary(self):
        assert bits.to_signed(0x80000000) == -(1 << 31)
        assert bits.to_signed(0x7FFFFFFF) == (1 << 31) - 1

    def test_to_signed_narrow(self):
        assert bits.to_signed(0xF, 4) == -1
        assert bits.to_signed(0x7, 4) == 7

    def test_sign_extend(self):
        assert bits.sign_extend(0x8, 4) == 0xFFFFFFF8
        assert bits.sign_extend(0x7, 4) == 7

    def test_zero_extend(self):
        assert bits.zero_extend(0xFFF8, 4) == 8

    def test_zero_extend_wraps_negative(self):
        assert bits.zero_extend(-1, 4) == 0xF


class TestFields:
    def test_get_field(self):
        assert bits.get_field(0xABCD1234, 15, 0) == 0x1234
        assert bits.get_field(0xABCD1234, 31, 16) == 0xABCD

    def test_get_field_single_bit(self):
        assert bits.get_field(0b1000, 3, 3) == 1

    def test_get_field_bad_range(self):
        with pytest.raises(ValueError):
            bits.get_field(0, 0, 1)

    def test_set_field(self):
        assert bits.set_field(0, 15, 8, 0xAB) == 0xAB00

    def test_set_field_overflow_raises(self):
        with pytest.raises(EncodingError):
            bits.set_field(0, 7, 0, 0x100)

    def test_set_field_preserves_other_bits(self):
        assert bits.set_field(0xFF00FF00, 15, 8, 0x12) == 0xFF001200

    def test_fits_signed(self):
        assert bits.fits_signed(-2048, 12)
        assert not bits.fits_signed(-2049, 12)
        assert bits.fits_signed(2047, 12)
        assert not bits.fits_signed(2048, 12)

    def test_fits_unsigned(self):
        assert bits.fits_unsigned(4095, 12)
        assert not bits.fits_unsigned(4096, 12)
        assert not bits.fits_unsigned(-1, 12)


class TestLanes:
    def test_split_lanes_bytes(self):
        assert bits.split_lanes(0x04030201, 8) == [1, 2, 3, 4]

    def test_split_lanes_halves(self):
        assert bits.split_lanes(0x00020001, 16) == [1, 2]

    def test_split_lanes_nibbles(self):
        assert bits.split_lanes(0x87654321, 4) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_split_lanes_crumbs(self):
        assert bits.split_lanes(0b11100100, 2)[:4] == [0, 1, 2, 3]

    def test_split_lanes_signed(self):
        assert bits.split_lanes(0xFF, 8, signed=True)[0] == -1
        assert bits.split_lanes(0xF, 4, signed=True)[0] == -1

    def test_join_lanes_roundtrip(self):
        word = 0xDEADBEEF
        for width in (2, 4, 8, 16):
            assert bits.join_lanes(bits.split_lanes(word, width), width) == word

    def test_join_lanes_wrong_count(self):
        with pytest.raises(ValueError):
            bits.join_lanes([1, 2, 3], 8)

    def test_join_lanes_masks_excess(self):
        assert bits.join_lanes([0x1FF, 0, 0, 0], 8) == 0xFF

    def test_replicate_scalar_bytes(self):
        assert bits.replicate_scalar(0xAB, 8) == 0xABABABAB

    def test_replicate_scalar_nibbles(self):
        assert bits.replicate_scalar(0x5, 4) == 0x55555555

    def test_replicate_scalar_uses_low_bits(self):
        assert bits.replicate_scalar(0x123, 8) == 0x23232323


class TestCountOps:
    def test_bit_count(self):
        assert bits.bit_count(0) == 0
        assert bits.bit_count(0xFFFFFFFF) == 32
        assert bits.bit_count(0b1010) == 2

    def test_find_first_set(self):
        assert bits.find_first_set(0b1000) == 3
        assert bits.find_first_set(1) == 0
        assert bits.find_first_set(0) == 32

    def test_find_last_set(self):
        assert bits.find_last_set(0b1000) == 3
        assert bits.find_last_set(0x80000000) == 31
        assert bits.find_last_set(0) == 32

    def test_count_leading_redundant_sign_bits(self):
        assert bits.count_leading_redundant_sign_bits(0) == 0
        assert bits.count_leading_redundant_sign_bits(0xFFFFFFFF) == 31
        assert bits.count_leading_redundant_sign_bits(1) == 30
        assert bits.count_leading_redundant_sign_bits(0x7FFFFFFF) == 0
