"""FITS header cards: fixed 80-character keyword records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.errors import FormatError

CARD_SIZE = 80

Value = Union[bool, int, float, str, None]


@dataclass(frozen=True)
class Card:
    keyword: str
    value: Value = None
    comment: str = ""

    def __post_init__(self) -> None:
        if len(self.keyword) > 8:
            raise ValueError(f"FITS keyword too long: {self.keyword!r}")
        if not self.keyword.replace("-", "").replace("_", "").isalnum() and self.keyword:
            raise ValueError(f"invalid FITS keyword: {self.keyword!r}")


def _format_value(value: Value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return ("T" if value else "F").rjust(20)
    if isinstance(value, int):
        return str(value).rjust(20)
    if isinstance(value, float):
        return repr(value).rjust(20)
    if isinstance(value, str):
        quoted = "'" + value.replace("'", "''") + "'"
        return quoted.ljust(20)
    raise TypeError(f"unsupported card value type {type(value)!r}")


def format_card(card: Card) -> bytes:
    """Render a card as exactly 80 ASCII bytes."""
    if card.keyword in ("END",):
        text = "END"
    elif card.keyword in ("COMMENT", "HISTORY", ""):
        text = f"{card.keyword:<8}{card.comment}"
    else:
        text = f"{card.keyword:<8}= {_format_value(card.value)}"
        if card.comment:
            text += f" / {card.comment}"
    if len(text) > CARD_SIZE:
        raise ValueError(f"card too long: {text!r}")
    return text.ljust(CARD_SIZE).encode("ascii")


def _parse_value(text: str) -> Value:
    text = text.strip()
    if not text:
        return None
    if text == "T":
        return True
    if text == "F":
        return False
    if text.startswith("'"):
        end = text.rfind("'")
        if end <= 0:
            raise FormatError(f"unterminated string value in card: {text!r}")
        return text[1:end].replace("''", "'").rstrip()
    try:
        if any(c in text for c in ".eEdD"):
            return float(text.replace("D", "E").replace("d", "e"))
        return int(text)
    except ValueError:
        raise FormatError(f"unparseable card value: {text!r}") from None


def parse_card(raw: bytes) -> Card:
    """Parse one 80-byte card; malformed cards raise :class:`FormatError`."""
    if len(raw) != CARD_SIZE:
        raise FormatError(f"card must be 80 bytes, got {len(raw)}")
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise FormatError("non-ASCII bytes in header card") from None
    keyword = text[:8].strip()
    if keyword == "END":
        return Card("END")
    if keyword in ("COMMENT", "HISTORY", ""):
        return Card(keyword, comment=text[8:].rstrip())
    if text[8:10] != "= ":
        raise FormatError(f"missing value indicator in card: {text!r}")
    rest = text[10:]
    slash = _find_comment_separator(rest)
    value_text = rest[:slash] if slash >= 0 else rest
    comment = rest[slash + 1 :].strip() if slash >= 0 else ""
    return Card(keyword, _parse_value(value_text), comment)


def _find_comment_separator(rest: str) -> int:
    """Index of the ``/`` starting the comment, respecting quoted strings."""
    if "'" not in rest:                  # no quoted string to skip
        return rest.find("/")
    in_string = False
    i = 0
    while i < len(rest):
        c = rest[i]
        if c == "'":
            if in_string and i + 1 < len(rest) and rest[i + 1] == "'":
                i += 1  # escaped quote
            else:
                in_string = not in_string
        elif c == "/" and not in_string:
            return i
        i += 1
    return -1
