"""Little-endian binary packing helpers shared by the file-format codecs."""

from __future__ import annotations


def pack_uint(value: int, nbytes: int) -> bytes:
    """Pack a non-negative integer into *nbytes* little-endian bytes."""
    if value < 0:
        raise ValueError(f"cannot pack negative value {value}")
    if value >= 1 << (8 * nbytes):
        raise ValueError(f"value {value} does not fit in {nbytes} bytes")
    return value.to_bytes(nbytes, "little")


def unpack_uint(buf: bytes, offset: int, nbytes: int) -> int:
    """Unpack *nbytes* little-endian bytes at *offset* as an unsigned int."""
    if offset < 0 or offset + nbytes > len(buf):
        raise ValueError(
            f"cannot read {nbytes} bytes at offset {offset} from {len(buf)}-byte buffer"
        )
    return int.from_bytes(buf[offset : offset + nbytes], "little")

