"""Tests for repro.util.rngstream and repro.util.binary."""

import pytest
from hypothesis import given, strategies as st

from repro.util.binary import pack_uint, unpack_uint
from repro.util.rngstream import RngStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_not_concatenation(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = RngStream(9, "x").generator().random(4)
        b = RngStream(9, "x").generator().random(4)
        assert (a == b).all()

    def test_child_equals_full_path(self):
        assert RngStream(9).child("a").child("b").seed == RngStream(9, "a", "b").seed

    def test_sibling_independence(self):
        a = RngStream(9, "run", 0).generator().random(4)
        b = RngStream(9, "run", 1).generator().random(4)
        assert not (a == b).all()

    def test_generator_restarts_from_seed(self):
        stream = RngStream(9, "x")
        assert (stream.generator().random(3) == stream.generator().random(3)).all()


class TestBinary:
    def test_pack_unpack(self):
        buf = pack_uint(0xDEADBEEF, 8)
        assert unpack_uint(buf, 0, 8) == 0xDEADBEEF
        assert len(buf) == 8

    def test_pack_overflow(self):
        with pytest.raises(ValueError):
            pack_uint(256, 1)
        with pytest.raises(ValueError):
            pack_uint(-1, 4)

    def test_unpack_bounds(self):
        with pytest.raises(ValueError):
            unpack_uint(b"\x00\x00", 1, 2)

    @given(st.integers(0, 2**63), st.integers(8, 9))
    def test_roundtrip(self, value, nbytes):
        assert unpack_uint(pack_uint(value, nbytes), 0, nbytes) == value
