"""Stage 2 -- ``mDiffExec``: difference images for overlapping pairs.

For every pair of projected images with a usable overlap, subtract them
over the overlap region and write the difference image.  As the paper
notes, these differences feed *only* the plane-fitting step -- their
pixels never reach the mosaic directly, which is why this stage shows
the lowest SDC rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.mfits.hdu import ImageHDU

MIN_OVERLAP_PIXELS = 64


@dataclass(frozen=True)
class Placement:
    """A projected image's bounding box on the mosaic grid."""

    y0: int
    x0: int
    shape: Tuple[int, int]

    @property
    def y1(self) -> int:
        return self.y0 + self.shape[0]

    @property
    def x1(self) -> int:
        return self.x0 + self.shape[1]


def placement_of(hdu: ImageHDU) -> Placement:
    return Placement(y0=int(float(hdu.header["CRPIX2"])),
                     x0=int(float(hdu.header["CRPIX1"])),
                     shape=hdu.data.shape)


def overlap_box(a: Placement, b: Placement) -> Tuple[int, int, int, int]:
    """Intersection (y0, y1, x0, x1) in mosaic coordinates (may be empty)."""
    return (max(a.y0, b.y0), min(a.y1, b.y1),
            max(a.x0, b.x0), min(a.x1, b.x1))


@dataclass(frozen=True)
class DiffRecord:
    tile_a: int
    tile_b: int
    path: str
