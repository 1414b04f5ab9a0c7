"""FITS serialization over the FFIS mount: 2880-byte block I/O.

Header and data are padded to the FITS block size and written through the
instrumentable ``ffis_write`` primitive in block-sized chunks, so Montage
stage outputs present the same per-write fault surface as real FITS I/O.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import FormatError
from repro.fusefs.mount import MountPoint
from repro.mfits.cards import CARD_SIZE, Card, format_card, parse_card
from repro.mfits.hdu import ImageHDU

BLOCK_SIZE = 2880
CARDS_PER_BLOCK = BLOCK_SIZE // CARD_SIZE


def write_fits(mp: MountPoint, path: str, hdu: ImageHDU) -> int:
    """Write *hdu* to *path*; returns the number of ``ffis_write`` calls."""
    cards = hdu.header_cards()
    header = b"".join(format_card(c) for c in cards)
    pad = (-len(header)) % BLOCK_SIZE
    header += b" " * pad

    # FITS stores big-endian float32.
    raw = hdu.data.astype(">f4").tobytes()
    data_pad = (-len(raw)) % BLOCK_SIZE
    raw += b"\x00" * data_pad

    n_writes = 0
    with mp.open(path, "w") as f:
        for start in range(0, len(header), BLOCK_SIZE):
            f.write(header[start : start + BLOCK_SIZE])
            n_writes += 1
        for start in range(0, len(raw), BLOCK_SIZE):
            f.write(raw[start : start + BLOCK_SIZE])
            n_writes += 1
    return n_writes


def read_fits(mp: MountPoint, path: str) -> ImageHDU:
    """Read a single-HDU FITS file; malformed files raise :class:`FormatError`."""
    return decode_fits(mp.read_file(path), path)


def decode_fits(buf: bytes, path: str) -> ImageHDU:
    """Decode the bytes *buf* of the single-HDU FITS file *path* (named
    in errors only); malformed files raise :class:`FormatError`."""
    if len(buf) < BLOCK_SIZE:
        raise FormatError(f"{path}: shorter than one FITS block")

    cards: List[Card] = []
    pos = 0
    ended = False
    while not ended:
        if pos + BLOCK_SIZE > len(buf):
            raise FormatError(f"{path}: header has no END card")
        block = buf[pos : pos + BLOCK_SIZE]
        pos += BLOCK_SIZE
        for i in range(CARDS_PER_BLOCK):
            card = parse_card(block[i * CARD_SIZE : (i + 1) * CARD_SIZE])
            cards.append(card)
            if card.keyword == "END":
                ended = True
                break

    index = {c.keyword: c.value for c in cards}
    nx, ny = index.get("NAXIS1"), index.get("NAXIS2")
    if not isinstance(nx, int) or not isinstance(ny, int):
        raise FormatError(f"{path}: missing NAXIS1/NAXIS2")
    nbytes = nx * ny * 4
    raw = buf[pos : pos + nbytes]
    if len(raw) < nbytes:
        raise FormatError(
            f"{path}: data unit truncated ({len(raw)} of {nbytes} bytes)")
    data = np.frombuffer(raw, dtype=">f4").astype(np.float32)
    return ImageHDU.from_cards(cards, data)
