"""A tiny structured binary writer/reader with byte-range field tracking.

The writer side (:class:`FieldWriter`) is how every metadata structure is
encoded: each ``put_*`` call appends bytes *and* records a named span, so
the assembled blob comes with a complete byte→field map.  The metadata
fault-injection campaign (Sec. IV-D of the paper) uses that map to report
which HDF5 field a corrupted byte belonged to, exactly as the authors used
the HDF5 File Format Specification to annotate their results.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import FormatError
from repro.mhdf5.fieldmap import FieldClass, FieldSpan
from repro.util.binary import pack_uint, unpack_uint


class FieldWriter:
    """Appends little-endian fields to a buffer, tracking named spans."""

    def __init__(self, base_offset: int = 0, container: str = "") -> None:
        self._chunks: List[bytes] = []
        self._len = 0
        self.base_offset = base_offset
        self.container = container
        self.spans: List[FieldSpan] = []

    def __len__(self) -> int:
        return self._len

    @property
    def offset(self) -> int:
        """Absolute offset of the next byte to be written."""
        return self.base_offset + self._len

    def put(self, data: bytes, name: str, cls: FieldClass) -> None:
        start = self.offset
        self._chunks.append(data)
        self._len += len(data)
        self.spans.append(FieldSpan(start, start + len(data), name, cls, self.container))

    def put_uint(self, value: int, nbytes: int, name: str, cls: FieldClass) -> None:
        self.put(pack_uint(value, nbytes), name, cls)

    def put_bytes(self, data: bytes, name: str, cls: FieldClass) -> None:
        self.put(bytes(data), name, cls)

    def put_reserved(self, nbytes: int, name: str = "reserved") -> None:
        self.put(b"\x00" * nbytes, name, FieldClass.RESERVED)

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class FieldReader:
    """Sequential little-endian reader with strict bounds checking.

    Running off the end of the structure raises :class:`FormatError` --
    the mini-HDF5 reader treats truncated structures as corruption, the
    same way the real library errors out of short decodes.
    """

    def __init__(self, buf: bytes, offset: int = 0, end: Optional[int] = None) -> None:
        self.buf = buf
        self.pos = offset
        self.end = len(buf) if end is None else end

    def remaining(self) -> int:
        return self.end - self.pos

    def take(self, nbytes: int, what: str = "field") -> bytes:
        if nbytes < 0 or self.pos + nbytes > self.end:
            raise FormatError(
                f"truncated structure: need {nbytes} bytes for {what} "
                f"at offset {self.pos}, only {self.remaining()} available"
            )
        data = self.buf[self.pos : self.pos + nbytes]
        self.pos += nbytes
        return data

    def take_uint(self, nbytes: int, what: str = "field") -> int:
        data = self.take(nbytes, what)
        return unpack_uint(data, 0, nbytes)

    def expect(self, expected: bytes, what: str) -> None:
        actual = self.take(len(expected), what)
        if actual != expected:
            raise FormatError(f"bad {what}: expected {expected!r}, found {actual!r}")

    def expect_uint(self, expected: int, nbytes: int, what: str) -> int:
        actual = self.take_uint(nbytes, what)
        if actual != expected:
            raise FormatError(f"bad {what}: expected {expected}, found {actual}")
        return actual

    def skip(self, nbytes: int, what: str = "padding") -> None:
        self.take(nbytes, what)
