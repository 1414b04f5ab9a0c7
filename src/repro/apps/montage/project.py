"""Stage 1 -- ``mProjExec``: reproject raw tiles onto the mosaic grid.

Each raw tile was sampled at a subpixel dither ``(dy, dx)``; reprojection
resamples it back onto the integer mosaic grid by bilinear interpolation
and emits, per input image, a projected image and the corresponding
*area* (coverage weight) image Montage uses when co-adding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import FormatError
from repro.mfits.hdu import ImageHDU


@dataclass(frozen=True)
class ProjectedPaths:
    image: str
    area: str


def shift_bilinear(pixels: np.ndarray, dy: float, dx: float) -> Tuple[np.ndarray, np.ndarray]:
    """Resample *pixels* at integer grid points offset by (+dy, +dx).

    Returns ``(resampled, weights)`` one row/column smaller than the
    input when the dither is fractional (edge pixels lack support).
    """
    h, w = pixels.shape
    out_h = h - 1 if dy > 0 else h
    out_w = w - 1 if dx > 0 else w
    ys = np.arange(out_h)[:, None] + dy
    xs = np.arange(out_w)[None, :] + dx
    y_lo = np.floor(ys).astype(int)
    x_lo = np.floor(xs).astype(int)
    fy = ys - y_lo
    fx = xs - x_lo
    y_hi = np.minimum(y_lo + 1, h - 1)
    x_hi = np.minimum(x_lo + 1, w - 1)
    res = ((1 - fy) * (1 - fx) * pixels[y_lo, x_lo]
           + (1 - fy) * fx * pixels[y_lo, x_hi]
           + fy * (1 - fx) * pixels[y_hi, x_lo]
           + fy * fx * pixels[y_hi, x_hi])
    weights = np.ones_like(res)
    return res, weights


def project_tile(hdu: ImageHDU) -> Tuple[ImageHDU, ImageHDU, int, int]:
    """Reproject one raw tile; returns (projected, area, y0, x0).

    The placement and dither come from the tile's own WCS-ish header
    cards, so a corrupted header changes the projection (or crashes it)
    exactly as corrupted WCS does in Montage.
    """
    header = hdu.header
    try:
        x0 = int(float(header["CRPIX1"]))
        y0 = int(float(header["CRPIX2"]))
        dx = float(header["CDELT1"])
        dy = float(header["CDELT2"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"tile lacks usable WCS cards: {exc}") from None
    if not (0.0 <= dx < 1.0) or not (0.0 <= dy < 1.0):
        raise FormatError(f"unphysical dither ({dy}, {dx}) in tile header")

    # Undo the dither.  Tile pixel i samples the sky at ``y0 + i + dy``;
    # the mosaic wants integer coordinates ``oy + k`` with ``oy = y0 + 1``
    # (for a fractional dither), i.e. tile position ``k + (1 - dy)``.
    res, weights = shift_bilinear(hdu.data.astype(np.float64),
                                  (1.0 - dy) % 1.0, (1.0 - dx) % 1.0)
    oy = y0 + (1 if dy > 0 else 0)
    ox = x0 + (1 if dx > 0 else 0)
    meta = {"TILE": header.get("TILE", -1), "CRPIX1": float(ox), "CRPIX2": float(oy)}
    proj = ImageHDU(res.astype(np.float32), header=dict(meta))
    area = ImageHDU(weights.astype(np.float32), header=dict(meta))
    return proj, area, oy, ox
