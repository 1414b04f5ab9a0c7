"""Unit and property tests for the generic float codec.

This module is the mechanism behind the paper's Table IV, so it gets the
heaviest property coverage: IEEE round-trips, equivalence with numpy's
native encodings, and the documented corruption semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError
from repro.mhdf5 import floatcodec
from repro.mhdf5.datatype import (
    ByteOrder,
    DatatypeMessage,
    MantissaNorm,
    ieee_f32le,
    ieee_f64le,
)
from repro.mhdf5.floatcodec import decode_floats


def encode_floats(values: np.ndarray, dt: DatatypeMessage) -> bytes:
    """Encode float64 *values* into raw bytes according to *dt*.

    The inverse of :func:`decode_floats` the round-trip properties
    below need.  Supports ``IMPLIED`` normalization with a non-empty
    exponent field (the IEEE-style geometries the writer emits).
    Values that need a larger exponent than the geometry can hold
    raise ``ValueError`` rather than saturate.
    """
    floatcodec._validate_geometry(dt)
    if dt.mantissa_norm is not MantissaNorm.IMPLIED or dt.exponent_size == 0:
        raise ValueError("encode_floats supports IMPLIED-normalization geometries only")
    values = np.asarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot encode non-finite values")

    mant, exp = np.frexp(values)           # values = mant * 2**exp, mant in [0.5, 1)
    nonzero = values != 0
    # Convert to IEEE form: 1.f * 2**(exp-1).
    biased = np.where(nonzero, exp - 1 + dt.exponent_bias, 0).astype(np.int64)
    exp_max = (1 << dt.exponent_size) - 1
    if np.any((biased >= exp_max) & nonzero):
        raise ValueError("value exponent exceeds datatype exponent range")
    subnormal = (biased <= 0) & nonzero
    if np.any(subnormal):
        # Shift the significand right until the exponent reaches 1 - bias.
        shift = (1 - biased[subnormal]).astype(np.float64)
        sig_sub = np.abs(mant[subnormal]) * 2.0 * np.exp2(-shift)
        mantissa_sub = np.rint(sig_sub * (1 << dt.mantissa_size)).astype(np.uint64)
    sig = np.abs(mant) * 2.0                # in [1, 2)
    frac = sig - 1.0
    mantissa = np.rint(frac * (1 << dt.mantissa_size)).astype(np.uint64)
    # Rounding can carry the fraction to 1.0: bump the exponent.
    carry = mantissa >= (1 << dt.mantissa_size)
    mantissa = np.where(carry, 0, mantissa)
    biased = biased + carry.astype(np.int64)
    if np.any((biased >= exp_max) & nonzero):
        raise ValueError("value exponent exceeds datatype exponent range after rounding")

    biased_u = np.where(nonzero, np.maximum(biased, 0), 0).astype(np.uint64)
    if np.any(subnormal):
        mantissa = mantissa.copy()
        mantissa[subnormal] = mantissa_sub
        biased_u = biased_u.copy()
        biased_u[subnormal] = 0

    word = np.zeros(values.shape, dtype=np.uint64)
    word |= mantissa << np.uint64(dt.mantissa_location)
    word |= biased_u << np.uint64(dt.exponent_location)
    word |= (np.signbit(values)).astype(np.uint64) << np.uint64(dt.sign_location)

    out = np.zeros((values.size, dt.size), dtype=np.uint8)
    for i in range(dt.size):
        out[:, i] = (word >> np.uint64(8 * i)).astype(np.uint8)
    if dt.byte_order is ByteOrder.BIG:
        out = out[:, ::-1]
    return out.tobytes()


finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False,
                       allow_subnormal=True)


class TestIeeeEquivalence:
    def test_f32_decode_matches_numpy(self, rng):
        values = rng.lognormal(0, 1, 256).astype(np.float32)
        decoded = decode_floats(values.tobytes(), ieee_f32le(), 256)
        assert np.array_equal(decoded, values.astype(np.float64))

    def test_f64_decode_matches_numpy(self, rng):
        values = rng.normal(0, 100, 256)
        decoded = decode_floats(values.tobytes(), ieee_f64le(), 256)
        assert np.array_equal(decoded, values)

    def test_f32_encode_matches_numpy(self, rng):
        values = rng.lognormal(0, 1, 256).astype(np.float32).astype(np.float64)
        assert encode_floats(values, ieee_f32le()) == values.astype(np.float32).tobytes()

    def test_f64_encode_matches_numpy(self, rng):
        values = rng.normal(0, 1, 64)
        assert encode_floats(values, ieee_f64le()) == values.tobytes()

    @given(st.lists(finite_f32, min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_f32_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.float32).astype(np.float64)
        raw = encode_floats(arr, ieee_f32le())
        assert raw == arr.astype(np.float32).tobytes()
        decoded = decode_floats(raw, ieee_f32le(), len(values))
        assert np.array_equal(decoded, arr)

    def test_special_values_decode(self):
        specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], dtype=np.float32)
        decoded = decode_floats(specials.tobytes(), ieee_f32le(), 5)
        assert np.isposinf(decoded[0])
        assert np.isneginf(decoded[1])
        assert np.isnan(decoded[2])
        assert decoded[3] == 0.0 and decoded[4] == 0.0

    def test_subnormals_decode(self):
        tiny = np.array([1e-41, -3e-42], dtype=np.float32)
        decoded = decode_floats(tiny.tobytes(), ieee_f32le(), 2)
        assert np.array_equal(decoded, tiny.astype(np.float64))

    def test_big_endian_roundtrip(self, rng):
        values = rng.normal(0, 1, 32).astype(np.float32)
        dt = ieee_f32le().with_fields(byte_order=ByteOrder.BIG)
        raw = encode_floats(values.astype(np.float64), dt)
        assert raw == values.astype(">f4").tobytes()
        assert np.array_equal(decode_floats(raw, dt, 32),
                              values.astype(np.float64))


class TestCorruptionSemantics:
    """The documented Table IV mechanisms."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.values = rng.lognormal(0, 0.5, 512).astype(np.float32)
        self.raw = self.values.tobytes()

    def test_exponent_bias_scales_by_power_of_two(self):
        for delta in (1, 4, 12):
            dt = ieee_f32le().with_fields(exponent_bias=127 - delta)
            decoded = decode_floats(self.raw, dt, 512)
            ratio = decoded / self.values.astype(np.float64)
            assert np.allclose(ratio, 2.0 ** delta)

    def test_norm_none_drops_implied_bit(self):
        dt = ieee_f32le().with_fields(mantissa_norm_raw=MantissaNorm.NONE.value)
        decoded = decode_floats(self.raw, dt, 512)
        golden = decode_floats(self.raw, ieee_f32le(), 512)
        # value = (1 + f) * 2^e  becomes  f * 2^e: strictly smaller.
        assert np.all(decoded <= golden)
        assert decoded.mean() < 0.8 * golden.mean()

    def test_mantissa_size_shift_gives_mild_distortion(self):
        dt = ieee_f32le().with_fields(mantissa_size=22)
        decoded = decode_floats(self.raw, dt, 512)
        mean_ratio = decoded.mean() / self.values.mean(dtype=np.float64)
        assert 1.0 < mean_ratio < 1.6   # the paper's 1.04..1.55 band

    def test_short_raw_zero_fills(self):
        decoded = decode_floats(self.raw[:100], ieee_f32le(), 512)
        assert np.array_equal(decoded[:25],
                              self.values[:25].astype(np.float64))
        assert np.all(decoded[25:] == 0.0)

    def test_out_of_range_geometry_rejected(self):
        with pytest.raises(FormatError):
            decode_floats(self.raw, ieee_f32le().with_fields(exponent_location=60), 8)
        with pytest.raises(FormatError):
            decode_floats(self.raw, ieee_f32le().with_fields(sign_location=32), 8)
        with pytest.raises(FormatError):
            decode_floats(self.raw, ieee_f32le().with_fields(mantissa_size=40), 8)

    def test_bad_element_size_rejected(self):
        with pytest.raises(FormatError):
            decode_floats(self.raw, ieee_f32le().with_fields(size=9), 8)


class TestEncodeValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            encode_floats(np.array([np.nan]), ieee_f32le())

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            encode_floats(np.array([1e39]), ieee_f32le())

    def test_non_implied_norm_rejected(self):
        dt = ieee_f32le().with_fields(mantissa_norm_raw=MantissaNorm.NONE.value)
        with pytest.raises(ValueError):
            encode_floats(np.array([1.0]), dt)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            decode_floats(b"", ieee_f32le(), -1)
        assert len(decode_floats(b"", ieee_f32le(), 0)) == 0


#: ``(datatype, uint word type, mantissa bits, exponent bits)`` of the
#: IEEE formats the native path serves.
IEEE_FORMATS = [(ieee_f32le, np.uint32, 23, 8), (ieee_f64le, np.uint64, 52, 11)]


def ieee_words(word, mant_bits, exp_bits, mantissas):
    """Every exponent value, both signs, each of *mantissas*."""
    sign, exp, mant = np.meshgrid(
        np.arange(2, dtype=np.uint64), np.arange(1 << exp_bits, dtype=np.uint64),
        np.array(mantissas, dtype=np.uint64), indexing="ij")
    bits = ((sign << np.uint64(mant_bits + exp_bits))
            | (exp << np.uint64(mant_bits)) | mant)
    return bits.ravel().astype(word)


def both_orders(dt, words):
    """``(datatype, raw bytes)`` of *words* in each byte order."""
    little = words.astype(words.dtype.newbyteorder("<")).tobytes()
    big = words.astype(words.dtype.newbyteorder(">")).tobytes()
    return [(dt, little), (dt.with_fields(byte_order=ByteOrder.BIG), big)]


class TestNativeDecode:
    """IEEE geometry takes numpy's native conversion; the generic bit
    assembly is the reference it must equal bit for bit, and every other
    geometry -- each Table IV numeric-field corruption -- must still be
    assembled from its recorded fields."""

    @pytest.fixture
    def assembled(self, monkeypatch):
        """Calls of the generic bit assembly."""
        calls = []
        real = floatcodec._elements_as_uint64

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(floatcodec, "_elements_as_uint64", counting)
        return calls

    @staticmethod
    def check_native(assembled, raw, dt, count):
        before = len(assembled)
        native = decode_floats(raw, dt, count)
        assert len(assembled) == before, "IEEE geometry took the generic path"
        reference = floatcodec._decode_generic(raw, dt, count)
        assert native.dtype == reference.dtype == np.float64
        assert native.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("make,word,mant_bits,exp_bits", IEEE_FORMATS)
    def test_every_exponent_both_signs(self, assembled, make, word,
                                       mant_bits, exp_bits):
        top = (1 << mant_bits) - 1
        mantissas = [0, 1, 2, 1 << (mant_bits - 1), (1 << (mant_bits - 1)) + 1,
                     top, top - 1, 0x5555555555555555 & top,
                     0x2AAAAAAAAAAAAAAA & top]
        words = ieee_words(word, mant_bits, exp_bits, mantissas)
        assert words.size == 2 * (1 << exp_bits) * len(mantissas)
        for dt, raw in both_orders(make(), words):
            self.check_native(assembled, raw, dt, words.size)

    @pytest.mark.parametrize("make,word,mant_bits,exp_bits", IEEE_FORMATS)
    def test_nan_payloads_and_specials(self, assembled, make, word,
                                       mant_bits, exp_bits):
        quiet = 1 << (mant_bits - 1)
        top = (1 << mant_bits) - 1
        nan_payloads = [quiet, quiet | 1, quiet | 0x1234, top,   # quiet
                        1, 2, 0x1234, quiet - 1]                 # signalling
        all_ones = (1 << exp_bits) - 1
        sign = 1 << (mant_bits + exp_bits)
        fields = ([(all_ones, m) for m in nan_payloads]
                  + [(all_ones, 0),                    # inf
                     (0, 0),                           # zero
                     (0, 1), (0, 0x1234), (0, top),    # subnormals
                     (1, 0)])                          # smallest normal
        base = [(e << mant_bits) | m for e, m in fields]
        words = np.array(base + [w | sign for w in base], dtype=word)
        for dt, raw in both_orders(make(), words):
            self.check_native(assembled, raw, dt, words.size)
            decoded = decode_floats(raw, dt, words.size)
            n = len(base)
            assert np.isnan(decoded[:len(nan_payloads)]).all()
            assert np.isnan(decoded[n:n + len(nan_payloads)]).all()
            assert not np.signbit(decoded[:n]).any()
            assert np.signbit(decoded[n:]).all()

    @pytest.mark.parametrize("make,word,mant_bits,exp_bits", IEEE_FORMATS)
    def test_random_bytes_and_short_input(self, assembled, make, word,
                                          mant_bits, exp_bits):
        rng = np.random.default_rng(17)
        size = np.dtype(word).itemsize
        raw = rng.integers(0, 256, 512 * size, dtype=np.uint8).tobytes()
        for dt in (make(), make().with_fields(byte_order=ByteOrder.BIG)):
            self.check_native(assembled, raw, dt, 512)
            self.check_native(assembled, raw + b"\xff" * 9, dt, 512)
            for cut in (0, 1, size - 1, size, 3 * size + 1, 100):
                self.check_native(assembled, raw[:cut], dt, 512)
                assert not decode_floats(raw[:cut], dt, 512)[cut // size + 1:].any()

    @pytest.mark.parametrize("make", [ieee_f32le, ieee_f64le])
    def test_zero_count(self, assembled, make):
        for dt in (make(), make().with_fields(byte_order=ByteOrder.BIG)):
            for raw in (b"", b"\x01" * 16):
                out = decode_floats(raw, dt, 0)
                assert out.dtype == np.float64 and out.size == 0
        assert assembled == []

    @pytest.mark.parametrize("make,word,mant_bits,exp_bits", IEEE_FORMATS)
    def test_tolerant_fields_do_not_choose_the_path(self, assembled, make, word,
                                                    mant_bits, exp_bits):
        """``bit_offset``/``bit_precision`` are read by neither path."""
        words = ieee_words(word, mant_bits, exp_bits, [0, 1, 0x1234])
        for offset, precision in ((0, 0), (7, 16), (65535, 65535)):
            dt = make().with_fields(bit_offset=offset, bit_precision=precision)
            for dt, raw in both_orders(dt, words):
                self.check_native(assembled, raw, dt, words.size)

    @pytest.mark.parametrize("make", [ieee_f32le, ieee_f64le])
    @pytest.mark.parametrize("field", [
        "mantissa_norm_raw", "exponent_location", "mantissa_location",
        "mantissa_size", "exponent_bias", "sign_location"])
    def test_table4_corruptions_take_the_generic_path(self, assembled, make,
                                                      field):
        """One corrupted Table IV numeric field each (mantissa norm: bit 5
        of its byte, IMPLIED -> NONE; locations and sizes: one step, kept
        in range; bias: off by one)."""
        golden = make()
        corrupt = {
            "mantissa_norm_raw": MantissaNorm.NONE.value,
            "exponent_location": golden.exponent_location - 1,
            "mantissa_location": golden.mantissa_location + 1,
            "mantissa_size": golden.mantissa_size - 1,
            "exponent_bias": golden.exponent_bias - 1,
            "sign_location": golden.sign_location - 1,
        }[field]
        dt = golden.with_fields(**{field: corrupt})
        raw = np.arange(1, 65, dtype=np.float64).astype(
            np.float32 if golden.size == 4 else np.float64).tobytes()
        decoded = decode_floats(raw, dt, 64)
        assert assembled == [dt]
        assert decoded.tobytes() == floatcodec._decode_generic(raw, dt, 64).tobytes()
        assert decoded.tobytes() != decode_floats(raw, golden, 64).tobytes()
