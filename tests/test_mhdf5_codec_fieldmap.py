"""Tests for the binary codec and the byte-range field map."""

import pytest

from repro.errors import FormatError
from repro.mhdf5.codec import FieldReader, FieldWriter
from repro.mhdf5.fieldmap import FieldClass, FieldMap, FieldSpan


class TestFieldWriter:
    def test_tracks_spans_with_offsets(self):
        w = FieldWriter(base_offset=100, container="c")
        w.put_uint(7, 2, "a", FieldClass.NUMERIC)
        w.put_bytes(b"xyz", "b", FieldClass.STRUCTURAL)
        assert w.getvalue() == b"\x07\x00xyz"
        assert [(s.start, s.end, s.name) for s in w.spans] == [
            (100, 102, "a"), (102, 105, "b")]

    def test_qualified_names(self):
        w = FieldWriter(container="objHeader.dataType")
        w.put_uint(0, 1, "Exponent Bias", FieldClass.NUMERIC)
        assert w.spans[0].qualified_name == "objHeader.dataType.Exponent Bias"


class TestFieldReader:
    def test_sequential_reads(self):
        r = FieldReader(b"\x01\x02\x03\x04")
        assert r.take_uint(2) == 0x0201
        assert r.take(2) == b"\x03\x04"

    def test_truncation_raises_format_error(self):
        r = FieldReader(b"\x01")
        with pytest.raises(FormatError):
            r.take(2, "field")

    def test_expect_mismatch(self):
        r = FieldReader(b"BAD!")
        with pytest.raises(FormatError, match="signature"):
            r.expect(b"GOOD", "signature")

    def test_expect_uint(self):
        r = FieldReader(b"\x05")
        with pytest.raises(FormatError):
            r.expect_uint(6, 1, "version")

    def test_window_bounds(self):
        r = FieldReader(b"abcdef", offset=1, end=3)
        assert r.take(2) == b"bc"
        with pytest.raises(FormatError):
            r.take(1)


class TestFieldMap:
    def make(self):
        return FieldMap([
            FieldSpan(0, 4, "sig", FieldClass.STRUCTURAL, "sb"),
            FieldSpan(4, 8, "pad", FieldClass.RESERVED, "sb"),
            FieldSpan(10, 14, "bias", FieldClass.NUMERIC, "dt"),
        ])

    def test_field_at(self):
        fm = self.make()
        assert fm.field_at(0).name == "sig"
        assert fm.field_at(3).name == "sig"
        assert fm.field_at(4).name == "pad"
        assert fm.field_at(9) is None
        assert fm.field_at(13).name == "bias"
        assert fm.field_at(14) is None

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            FieldMap([FieldSpan(0, 4, "a", FieldClass.NUMERIC),
                      FieldSpan(2, 6, "b", FieldClass.NUMERIC)])

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            FieldSpan(4, 4, "empty", FieldClass.NUMERIC)

    def test_bytes_by_class(self):
        totals = self.make().bytes_by_class()
        assert totals[FieldClass.STRUCTURAL] == 4
        assert totals[FieldClass.RESERVED] == 4
        assert totals[FieldClass.NUMERIC] == 4

    def test_container_fraction(self):
        fm = self.make()
        assert fm.container_fraction("sb") == pytest.approx(8 / 12)

    def test_extent(self):
        assert self.make().extent == 14
