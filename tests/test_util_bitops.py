"""Unit and property tests for repro.util.bitops."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bitops import (
    flip_bit,
    flip_bits,
    flip_consecutive_bits,
    hamming_distance,
)


class TestGetSetFlip:
    def test_flip_bit_involution(self):
        buf = bytes(range(16))
        assert flip_bit(flip_bit(buf, 37), 37) == buf

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            flip_bit(b"\x00", -1)

    def test_flip_bits_multiple(self):
        assert flip_bits(b"\x00", [0, 1, 2]) == b"\x07"


class TestConsecutiveFlips:
    def test_flips_exactly_n(self):
        out = flip_consecutive_bits(b"\x00\x00", 6, 4)
        assert hamming_distance(out, b"\x00\x00") == 4

    def test_clamps_at_buffer_end(self):
        out = flip_consecutive_bits(b"\x00", 7, 4)
        assert out == b"\x80"

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            flip_consecutive_bits(b"\x00", 0, 0)

    @given(st.binary(min_size=1, max_size=64), st.data())
    def test_double_application_restores(self, buf, data):
        start = data.draw(st.integers(0, 8 * len(buf) - 1))
        n = data.draw(st.integers(1, 8))
        once = flip_consecutive_bits(buf, start, n)
        assert flip_consecutive_bits(once, start, n) == buf

    @given(st.binary(min_size=1, max_size=64), st.data())
    def test_hamming_distance_matches_span(self, buf, data):
        start = data.draw(st.integers(0, 8 * len(buf) - 1))
        n = data.draw(st.integers(1, 8))
        expected = min(n, 8 * len(buf) - start)
        assert hamming_distance(buf, flip_consecutive_bits(buf, start, n)) == expected


class TestCounting:
    def test_hamming_requires_equal_length(self):
        with pytest.raises(ValueError):
            hamming_distance(b"a", b"ab")
