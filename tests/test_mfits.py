"""Tests for the mini-FITS format."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import FormatError
from repro.mfits import (BLOCK_SIZE, Card, ImageHDU, decode_fits, format_card,
                         parse_card, read_fits, write_fits)
from repro.mfits.cards import _find_comment_separator


def separator_by_scan(rest):
    """The quote-aware scan for the comment ``/``, character by
    character (the reference for the quote-free fast path)."""
    in_string = False
    i = 0
    while i < len(rest):
        c = rest[i]
        if c == "'":
            if in_string and i + 1 < len(rest) and rest[i + 1] == "'":
                i += 1
            else:
                in_string = not in_string
        elif c == "/" and not in_string:
            return i
        i += 1
    return -1


class TestCards:
    def test_value_types_roundtrip(self):
        for value in (True, False, 42, -17, 3.25, "m101", None):
            card = Card("KEY", value)
            assert parse_card(format_card(card)).value == value

    def test_comment_preserved(self):
        card = Card("BITPIX", -32, "IEEE float")
        parsed = parse_card(format_card(card))
        assert parsed.comment == "IEEE float"
        assert parsed.value == -32

    def test_end_card(self):
        assert parse_card(format_card(Card("END"))).keyword == "END"

    def test_string_with_quote_and_slash(self):
        card = Card("NAME", "o'brien/field")
        assert parse_card(format_card(card)).value == "o'brien/field"

    def test_card_is_80_bytes(self):
        assert len(format_card(Card("SIMPLE", True))) == 80

    def test_long_keyword_rejected(self):
        with pytest.raises(ValueError):
            Card("WAYTOOLONGKEY", 1)

    def test_malformed_card_raises(self):
        with pytest.raises(FormatError):
            parse_card(b"\x00" * 80)
        with pytest.raises(FormatError):
            parse_card(b"KEY     X 1".ljust(80))
        with pytest.raises(FormatError):
            parse_card(b"x" * 79)

    def test_unparseable_value_raises(self):
        raw = ("KEY     = @@@@").ljust(80).encode()
        with pytest.raises(FormatError):
            parse_card(raw)

    @pytest.mark.parametrize("text,expected", [
        # a slash inside a quoted value
        ("NAME    = 'a/b'", ("NAME", "a/b", "")),
        ("NAME    = 'a/b'             / the / note", ("NAME", "a/b", "the / note")),
        # an escaped '' before a slash
        ("NAME    = 'o''b/c' / x", ("NAME", "o'b/c", "x")),
        ("NAME    = '''' / x", ("NAME", "'", "x")),
        # a trailing comment
        ("NAXIS1  =                   12 / length of axis 1",
         ("NAXIS1", 12, "length of axis 1")),
        ("CRPIX1  =                 16.0/", ("CRPIX1", 16.0, "")),
        # no comment
        ("CRPIX1  =                 16.0", ("CRPIX1", 16.0, "")),
        ("SIMPLE  =                    T", ("SIMPLE", True, "")),
        # a blank card, as padding before END
        ("", ("", None, "")),
        ("END", ("END", None, "")),
    ])
    def test_parse_table(self, text, expected):
        card = parse_card(text.ljust(80).encode("ascii"))
        assert (card.keyword, card.value, card.comment) == expected

    @given(st.text(alphabet=" /'aT1.", max_size=24))
    def test_comment_separator_matches_scan(self, rest):
        assert _find_comment_separator(rest) == separator_by_scan(rest)

    def test_blank_card_before_end(self):
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        cards = ImageHDU(data, header={"CRPIX1": 2.0}).header_cards()
        header = b"".join(format_card(c) for c in cards[:-1])
        header += b" " * 80 + format_card(Card("END"))
        header += b" " * (-len(header) % BLOCK_SIZE)
        raw = data.astype(">f4").tobytes()
        hdu = decode_fits(header + raw + b"\x00" * (-len(raw) % BLOCK_SIZE),
                          "/blank.fits")
        assert np.array_equal(hdu.data, data)
        assert hdu.header == {"CRPIX1": 2.0}

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                   max_size=16))
    def test_string_roundtrip_property(self, text):
        card = Card("STR", text.rstrip())
        assert parse_card(format_card(card)).value == text.rstrip()


class TestImageIO:
    def test_roundtrip(self, mp, rng):
        data = rng.normal(100, 5, (13, 17)).astype(np.float32)
        hdu = ImageHDU(data, header={"CRPIX1": 3.0, "CRPIX2": 4.0})
        write_fits(mp, "/img.fits", hdu)
        back = read_fits(mp, "/img.fits")
        assert np.array_equal(back.data, data)
        assert back.header["CRPIX1"] == 3.0

    def test_block_multiple_size(self, mp, rng):
        data = rng.random((9, 9)).astype(np.float32)
        write_fits(mp, "/img.fits", ImageHDU(data))
        assert mp.stat("/img.fits").size % BLOCK_SIZE == 0

    def test_big_endian_on_disk(self, mp):
        data = np.array([[1.5]], dtype=np.float32)
        write_fits(mp, "/img.fits", ImageHDU(data))
        raw = mp.read_file("/img.fits")
        assert raw[BLOCK_SIZE : BLOCK_SIZE + 4] == data.astype(">f4").tobytes()

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            ImageHDU(np.zeros(4, dtype=np.float32))

    def test_truncated_data_raises(self, mp, rng):
        data = rng.random((40, 40)).astype(np.float32)
        write_fits(mp, "/img.fits", ImageHDU(data))
        mp.truncate("/img.fits", BLOCK_SIZE + 100)
        with pytest.raises(FormatError, match="truncated"):
            read_fits(mp, "/img.fits")

    def test_zeroed_header_raises(self, mp, rng):
        data = rng.random((8, 8)).astype(np.float32)
        write_fits(mp, "/img.fits", ImageHDU(data))
        with mp.open("/img.fits", "r+") as f:
            f.pwrite(b"\x00" * 80, 0)
        with pytest.raises(FormatError):
            read_fits(mp, "/img.fits")

    def test_missing_end_card_raises(self, mp, rng):
        # A file of spaces parses cards forever -> header has no END.
        mp.write_file("/bad.fits", b" " * BLOCK_SIZE)
        with pytest.raises(FormatError):
            read_fits(mp, "/bad.fits")

    def test_short_file_raises(self, mp):
        mp.write_file("/tiny.fits", b"SIMPLE")
        with pytest.raises(FormatError):
            read_fits(mp, "/tiny.fits")

    def test_bitpix_validated(self, mp, rng):
        data = rng.random((4, 4)).astype(np.float32)
        write_fits(mp, "/img.fits", ImageHDU(data))
        raw = bytearray(mp.read_file("/img.fits"))
        # Rewrite the BITPIX card with an unsupported value.
        bad = format_card(Card("BITPIX", 16))
        idx = raw.find(b"BITPIX")
        raw[idx : idx + 80] = bad
        mp.write_file("/img.fits", bytes(raw))
        with pytest.raises(FormatError, match="BITPIX"):
            read_fits(mp, "/img.fits")
