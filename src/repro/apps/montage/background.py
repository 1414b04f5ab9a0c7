"""Stage 3 -- ``mBgExec`` (with the plane fitting of ``mFitExec``).

Fits a plane ``c0 + cy*y + cx*x`` to every difference image, solves the
global least-squares problem for per-image correction planes whose
pairwise differences best explain the fitted planes (gauge-fixed so the
corrections sum to zero), then subtracts each image's plane and writes
the background-matched images.

A corrupted difference image perturbs only three fitted coefficients per
pair -- the paper's explanation for why ``mDiffExec`` faults are largely
absorbed ("potentially be mitigated in the process of extracting
coefficients").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.apps.montage.diff import DiffRecord
from repro.errors import FormatError
from repro.fusefs.mount import MountPoint
from repro.mfits.hdu import ImageHDU
from repro.mfits.io import decode_fits, read_fits, write_fits


@dataclass(frozen=True)
class PlaneFit:
    """Fitted plane of one difference image (mosaic-coordinate basis)."""

    tile_a: int
    tile_b: int
    c0: float
    cy: float
    cx: float


CLIP_SIGMA = 2.5
CLIP_ITERATIONS = 3


def fit_plane(hdu: ImageHDU) -> PlaneFit:
    """Sigma-clipped least-squares plane through a difference image.

    Like Montage's ``mFitplane``, the fit iteratively rejects outlier
    pixels (> ``CLIP_SIGMA`` residual sigmas) before refitting.  The
    clipping is the mechanism behind the paper's observation that faults
    in ``mDiffExec`` outputs are largely absorbed: corrupted pixels look
    like stars/artifacts and get rejected from the background solution.
    Non-finite pixels are excluded up front; an all-bad difference image
    is a format-level failure.
    """
    y0 = float(hdu.header["CRPIX2"])
    x0 = float(hdu.header["CRPIX1"])
    data = hdu.data.astype(np.float64)
    h, w = data.shape
    yy, xx = np.mgrid[0:h, 0:w]
    yy = yy + y0
    xx = xx + x0
    good = np.isfinite(data)
    if good.sum() < 8:
        raise FormatError("difference image has too few usable pixels to fit")

    values = data[good]
    A = np.column_stack([np.ones(values.size), yy[good], xx[good]])
    keep = np.ones(values.size, dtype=bool)
    coeffs = np.zeros(3)
    for _ in range(CLIP_ITERATIONS):
        if keep.sum() < 8:
            break
        coeffs, *_ = np.linalg.lstsq(A[keep], values[keep], rcond=None)
        residuals = values - A @ coeffs
        sigma = residuals[keep].std()
        if sigma == 0:
            break
        new_keep = np.abs(residuals) <= CLIP_SIGMA * sigma
        if new_keep.sum() == keep.sum():
            break
        keep = new_keep
    return PlaneFit(tile_a=int(hdu.header["TILEA"]),
                    tile_b=int(hdu.header["TILEB"]),
                    c0=float(coeffs[0]), cy=float(coeffs[1]), cx=float(coeffs[2]))


def fit_diff(buf: bytes, path: str) -> PlaneFit:
    """Plane fit of the difference image *path* whose file bytes are
    *buf*: a pure function of *buf* (*path* only names errors)."""
    return fit_plane(decode_fits(buf, path))


def solve_corrections(fits: List[PlaneFit], tiles: List[int]) -> Dict[int, Tuple[float, float, float]]:
    """Global gauge-fixed least squares: per-tile correction planes.

    Unknowns are three coefficients per tile; each fitted pair plane
    contributes equations ``corr_a - corr_b = fit_ab`` and one extra row
    per coefficient pins the sum of corrections to zero (the mosaic's
    overall level is not observable from differences alone).
    """
    index = {tile: i for i, tile in enumerate(tiles)}
    n = len(tiles)
    rows = []
    rhs = []
    for pf in fits:
        if pf.tile_a not in index or pf.tile_b not in index:
            # A pair whose image failed upstream contributes no constraint.
            continue
        for k, value in enumerate((pf.c0, pf.cy, pf.cx)):
            row = np.zeros(3 * n)
            row[3 * index[pf.tile_a] + k] = 1.0
            row[3 * index[pf.tile_b] + k] = -1.0
            rows.append(row)
            rhs.append(value)
    for k in range(3):
        gauge = np.zeros(3 * n)
        gauge[k::3] = 1.0
        rows.append(gauge)
        rhs.append(0.0)
    A = np.array(rows)
    b = np.array(rhs)
    solution, *_ = np.linalg.lstsq(A, b, rcond=None)
    return {tile: (float(solution[3 * i]), float(solution[3 * i + 1]),
                   float(solution[3 * i + 2])) for tile, i in index.items()}


def render_fits_table(fits: List[PlaneFit]) -> str:
    """Render plane fits as the ``fits.tbl`` text table ``mFitExec`` emits.

    The fixed output precision matters experimentally: coefficient
    perturbations below the printed resolution vanish here, which is how
    small corruptions of difference images end up *bit-identical* in the
    final mosaic (the paper's stage-decoupling observation).
    """
    lines = ["| plus | minus |    a     |     b     |     c     |"]
    for pf in fits:
        lines.append(f"  {pf.tile_a:4d}   {pf.tile_b:4d}   {pf.c0: .2f}  "
                     f"{pf.cy: .3f}  {pf.cx: .3f}")
    return "\n".join(lines) + "\n"


def parse_fits_table(text: str) -> List[PlaneFit]:
    """Parse a ``fits.tbl``; malformed rows are skipped (executor style)."""
    fits: List[PlaneFit] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("|"):
            continue
        parts = stripped.split()
        if len(parts) != 5:
            continue
        try:
            fits.append(PlaneFit(tile_a=int(parts[0]), tile_b=int(parts[1]),
                                 c0=float(parts[2]), cy=float(parts[3]),
                                 cx=float(parts[4])))
        except ValueError:
            continue
    return fits


@dataclass(frozen=True)
class BackgroundModel:
    """The solved background state between fitting and application.

    Everything :func:`mbg_apply` needs to write the corrected images:
    the loaded projected HDUs (treated as read-only) and the per-tile
    correction planes.  This is the carry value at the prefix-replay
    boundary splitting ``mBgExec``'s expensive fits from its writes.
    """

    hdus: Dict[int, ImageHDU]
    corrections: Dict[int, Tuple[float, float, float]]


def mbg_fit(mp: MountPoint, image_paths: List[str], diffs: List[DiffRecord],
            out_dir: str,
            fit: Callable[[bytes, str], PlaneFit] = fit_diff) -> BackgroundModel:
    """The fitting half of ``mBgExec``: fit planes, write/read the fits
    table, load the projected images, solve the global corrections.

    Every difference image is read whole and its file bytes handed to
    *fit*.  The default, :func:`fit_diff`, fits from scratch; since a
    fit is a pure function of those bytes, a caller may instead return
    the stored fit of bytes it has fitted before -- which is how a
    replayed Montage run refits only the differences that changed
    (:class:`~repro.apps.montage.app.MontageApplication`).
    """
    mp.makedirs(out_dir)
    plane_fits = []
    for rec in diffs:
        # Executor semantics: an unreadable or unusable difference image
        # just loses its constraint.
        try:
            plane_fits.append(fit(mp.read_file(rec.path), rec.path))
        except (FormatError, KeyError, TypeError, ValueError):
            continue
    table_path = f"{out_dir}/fits.tbl"
    mp.write_file(table_path, render_fits_table(plane_fits).encode("ascii"))
    plane_fits = parse_fits_table(
        mp.read_file(table_path).decode("ascii", errors="replace"))

    hdus: Dict[int, ImageHDU] = {}
    for path in image_paths:
        try:
            hdu = read_fits(mp, path)
            tile = int(hdu.header["TILE"])
        except (FormatError, KeyError, TypeError, ValueError):
            continue
        hdus[tile] = hdu
    if not hdus:
        raise FormatError("mBgExec: no usable projected images")
    corrections = solve_corrections(plane_fits, sorted(hdus))
    return BackgroundModel(hdus=hdus, corrections=corrections)


def mbg_apply(mp: MountPoint, model: BackgroundModel,
              out_dir: str) -> List[str]:
    """The writing half of ``mBgExec``: subtract each tile's correction
    plane and write the background-matched images."""
    out_paths: List[str] = []
    for tile in sorted(model.hdus):
        hdu = model.hdus[tile]
        c0, cy, cx = model.corrections[tile]
        y0 = float(hdu.header["CRPIX2"])
        x0 = float(hdu.header["CRPIX1"])
        h, w = hdu.data.shape
        yy, xx = np.mgrid[0:h, 0:w]
        plane = c0 + cy * (yy + y0) + cx * (xx + x0)
        with np.errstate(invalid="ignore", over="ignore"):
            corrected = (hdu.data.astype(np.float64) - plane).astype(np.float32)
        out_path = f"{out_dir}/c_{tile}.fits"
        write_fits(mp, out_path, ImageHDU(corrected, header=dict(hdu.header)))
        out_paths.append(out_path)
    return out_paths
