"""Bit-level manipulation helpers used by the fault models and campaigns.

All buffer-oriented helpers use a consistent bit-addressing convention:
bit ``i`` of a byte buffer lives in byte ``i // 8`` at intra-byte position
``i % 8`` counted from the least-significant bit.  This matches the HDF5
File Format Specification, whose floating-point property fields (bit
offset, exponent location, mantissa location) address bits from the LSB of
the little-endian element.
"""

from __future__ import annotations

from typing import Iterable


def flip_bit(buf: bytes, bit_index: int) -> bytes:
    """Return a copy of *buf* with bit ``bit_index`` inverted."""
    if bit_index < 0 or bit_index >= 8 * len(buf):
        raise IndexError(f"bit index {bit_index} out of range for {len(buf)} bytes")
    out = bytearray(buf)
    out[bit_index >> 3] ^= 1 << (bit_index & 7)
    return bytes(out)


def flip_bits(buf: bytes, bit_indices: Iterable[int]) -> bytes:
    """Return a copy of *buf* with every bit in *bit_indices* inverted."""
    out = bytearray(buf)
    n = 8 * len(out)
    for bit_index in bit_indices:
        if bit_index < 0 or bit_index >= n:
            raise IndexError(f"bit index {bit_index} out of range for {len(out)} bytes")
        out[bit_index >> 3] ^= 1 << (bit_index & 7)
    return bytes(out)


def flip_consecutive_bits(buf: bytes, start_bit: int, count: int) -> bytes:
    """Flip *count* consecutive bits of *buf* starting at *start_bit*.

    This is the paper's BIT_FLIP feature ("flip consecutive multiple bits",
    2 by default, 4 in the footnote-3 ablation).  The run is clamped to the
    buffer end so a start near the final bit still flips at least one bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = 8 * len(buf)
    if start_bit < 0 or start_bit >= n:
        raise IndexError(f"start bit {start_bit} out of range for {len(buf)} bytes")
    end = min(start_bit + count, n)
    return flip_bits(buf, range(start_bit, end))


def hamming_distance(a: bytes, b: bytes) -> int:
    """Number of differing bits between equal-length buffers *a* and *b*."""
    if len(a) != len(b):
        raise ValueError("buffers must have equal length")
    return sum(bin(x ^ y).count("1") for x, y in zip(a, b))
