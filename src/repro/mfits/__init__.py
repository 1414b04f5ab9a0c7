"""mini-FITS: the Flexible Image Transport System subset Montage needs.

Implements single-HDU FITS files with 80-character header cards in
2880-byte blocks and big-endian IEEE float32 image data (``BITPIX=-32``),
which is what the paper's Montage workload (2MASS Atlas images around
m101) reads and writes at every pipeline stage.
"""

from repro.mfits.cards import Card, format_card, parse_card
from repro.mfits.hdu import ImageHDU
from repro.mfits.io import BLOCK_SIZE, decode_fits, read_fits, write_fits

__all__ = [
    "Card",
    "format_card",
    "parse_card",
    "ImageHDU",
    "decode_fits",
    "read_fits",
    "write_fits",
    "BLOCK_SIZE",
]
