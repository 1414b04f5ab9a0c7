"""Generic floating-point decoding driven by the datatype message.

The real HDF5 library does not hard-code IEEE 754: its datatype-conversion
path assembles each value from the exponent/mantissa geometry recorded in
the datatype message.  That genericity is exactly what turns corrupted
datatype fields into silently wrong data (the paper's Table IV), so we
reproduce it faithfully:

``value = (-1)^sign * significand * 2^(exponent - bias)``

with ``significand = implied + mantissa / 2^mantissa_size`` where
``implied`` is 1 for ``IMPLIED`` normalization and 0 otherwise, plus the
IEEE special cases when the geometry allows them (all-zero exponent →
subnormal, all-ones exponent → inf/NaN, only for ``IMPLIED``).

Everything is numpy-vectorized: an n-element dataset decodes with a
handful of array ops, no Python-level per-element loop.

**Native path.**  When every field the decoder reads -- size, sign
location, exponent location and size, mantissa location and size,
exponent bias, and ``IMPLIED`` normalization -- is exactly IEEE binary32
or binary64 (either byte order), :func:`decode_floats` lets numpy
convert the bytes instead.  That is exact, not an approximation: under
IEEE geometry every term of the formula above is exact in float64 (the
mantissa fits 53 bits and the scale is a power of two inside float64's
range, subnormals included), so both paths give exactly the stored
value, ±0 and ±inf included.  The only difference is NaN:
the generic path emits a canonical NaN carrying the input's sign and
drops the payload, so the native path rewrites its NaNs to match.
``bit_offset`` and ``bit_precision`` are read by neither path, so they
play no part in the choice.  Every other geometry -- every Table IV
numeric-field corruption -- takes the generic assembly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import FormatError
from repro.mhdf5.datatype import ByteOrder, DatatypeMessage, MantissaNorm


def _validate_geometry(dt: DatatypeMessage) -> None:
    """Reject geometry the library could not even address.

    Fields that run past the element's bits make bit extraction
    meaningless; the library fails its datatype sanity checks there (a
    detected error / crash), while in-range but *wrong* geometry decodes
    silently (SDC).  This boundary gives the paper's split where some
    corruptions of Exponent Location are SDCs and others crash.
    """
    nbits = 8 * dt.size
    if dt.size < 1 or dt.size > 8:
        raise FormatError(f"unsupported element size {dt.size}")
    if dt.exponent_location + dt.exponent_size > nbits:
        raise FormatError(
            f"exponent field [{dt.exponent_location}, "
            f"+{dt.exponent_size}) exceeds {nbits}-bit element")
    if dt.mantissa_location + dt.mantissa_size > nbits:
        raise FormatError(
            f"mantissa field [{dt.mantissa_location}, "
            f"+{dt.mantissa_size}) exceeds {nbits}-bit element")
    if dt.sign_location >= nbits:
        raise FormatError(f"sign location {dt.sign_location} exceeds {nbits}-bit element")
    if dt.mantissa_size >= 64 or dt.exponent_size >= 64:
        raise FormatError("mantissa/exponent size out of range")


#: ``(size, sign location, exponent location, exponent size, mantissa
#: location, mantissa size, exponent bias, normalization)`` of the IEEE
#: formats numpy decodes natively, with their numpy type codes.
_IEEE_GEOMETRY = {
    (4, 31, 23, 8, 0, 23, 127, MantissaNorm.IMPLIED): "f4",
    (8, 63, 52, 11, 0, 52, 1023, MantissaNorm.IMPLIED): "f8",
}


def _native_type(dt: DatatypeMessage) -> Optional[np.dtype]:
    """The numpy dtype that decodes *dt* exactly, or ``None``."""
    code = _IEEE_GEOMETRY.get((dt.size, dt.sign_location, dt.exponent_location,
                               dt.exponent_size, dt.mantissa_location,
                               dt.mantissa_size, dt.exponent_bias,
                               dt.mantissa_norm))
    if code is None:
        return None
    return np.dtype((">" if dt.byte_order is ByteOrder.BIG else "<") + code)


def _zero_extended(raw: bytes, need: int) -> bytes:
    """The first *need* bytes of *raw*, zero-extended when it is short:
    reading past the end of the allocation (e.g. after an ARD shift)
    observes holes, not an error -- matching how a read of a sparse
    region behaves."""
    if len(raw) < need:
        return raw + b"\x00" * (need - len(raw))
    return raw[:need]


def _elements_as_uint64(raw: bytes, dt: DatatypeMessage, count: int) -> np.ndarray:
    """Assemble *count* elements of *raw* into uint64 words."""
    raw = _zero_extended(raw, count * dt.size)
    a = np.frombuffer(raw, dtype=np.uint8).reshape(count, dt.size)
    if dt.byte_order is ByteOrder.BIG:
        a = a[:, ::-1]
    shifts = (np.arange(dt.size, dtype=np.uint64) * np.uint64(8))
    return (a.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)


def decode_floats(raw: bytes, dt: DatatypeMessage, count: int) -> np.ndarray:
    """Decode *count* elements from *raw* according to *dt*.

    Returns a float64 array.  Raises :class:`FormatError` for geometry the
    library would reject; silently produces wrong values for geometry that
    is in-range but not what the data was written with.  IEEE geometry
    takes the native path (see the module docstring); its output is
    bit-identical to the generic assembly's.
    """
    _validate_geometry(dt)
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return np.zeros(0, dtype=np.float64)

    native = _native_type(dt)
    if native is None:
        return _decode_generic(raw, dt, count)
    with np.errstate(invalid="ignore"):     # signalling NaNs quieten
        values = np.frombuffer(_zero_extended(raw, count * dt.size),
                               dtype=native).astype(np.float64)
    nan = np.isnan(values)
    if nan.any():
        values[nan] = np.copysign(np.nan, values[nan])
    return values


def _decode_generic(raw: bytes, dt: DatatypeMessage, count: int) -> np.ndarray:
    """The generic assembly from the recorded geometry (any valid *dt*,
    ``count > 0``); the reference the native path is tested against."""
    u = _elements_as_uint64(raw, dt, count)

    def field(location: int, size: int) -> np.ndarray:
        if size == 0:
            return np.zeros_like(u)
        mask = np.uint64((1 << size) - 1)
        return (u >> np.uint64(location)) & mask

    mantissa = field(dt.mantissa_location, dt.mantissa_size)
    exponent = field(dt.exponent_location, dt.exponent_size)
    sign = field(dt.sign_location, 1).astype(np.float64)

    frac = mantissa.astype(np.float64) / float(1 << dt.mantissa_size) \
        if dt.mantissa_size > 0 else np.zeros(count, dtype=np.float64)

    norm = dt.mantissa_norm
    exp_f = exponent.astype(np.float64) - float(dt.exponent_bias)

    with np.errstate(over="ignore", invalid="ignore"):
        if norm is MantissaNorm.IMPLIED and dt.exponent_size > 0:
            exp_max = (1 << dt.exponent_size) - 1
            is_sub = exponent == 0
            is_special = exponent == exp_max
            significand = np.where(is_sub, frac, 1.0 + frac)
            exp_eff = np.where(is_sub, 1.0 - float(dt.exponent_bias), exp_f)
            values = significand * np.exp2(exp_eff)
            # inf for zero mantissa, NaN otherwise -- IEEE semantics.
            special = np.where(mantissa == 0, np.inf, np.nan)
            values = np.where(is_special, special, values)
        else:
            significand = frac + (1.0 if norm is MantissaNorm.IMPLIED else 0.0)
            values = significand * np.exp2(exp_f)

    return np.where(sign > 0, -values, values)
