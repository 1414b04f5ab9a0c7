"""Mini-Montage: synthetic m101 mosaic pipeline (mProj/mDiff/mBg/mAdd)."""

from repro.apps.montage.add import JPEG_STRETCH, MosaicStats, mosaic_stats, quantize_mosaic, run_madd, run_mjpeg
from repro.apps.montage.app import (
    MIN_TOLERANCE,
    MOSAIC_PATH,
    STAGES,
    MontageApplication,
)
from repro.apps.montage.background import (
    PlaneFit,
    fit_plane,
    parse_fits_table,
    render_fits_table,
    solve_corrections,
)
from repro.apps.montage.diff import (
    DiffRecord,
    Placement,
    overlap_box,
    placement_of,
)
from repro.apps.montage.image import RawTile, SkyConfig, generate_sky, make_raw_tiles
from repro.apps.montage.project import ProjectedPaths, project_tile, shift_bilinear

__all__ = [
    "RawTile",
    "SkyConfig",
    "generate_sky",
    "make_raw_tiles",
    "ProjectedPaths",
    "project_tile",
    "shift_bilinear",
    "DiffRecord",
    "Placement",
    "overlap_box",
    "placement_of",
    "PlaneFit",
    "fit_plane",
    "parse_fits_table",
    "render_fits_table",
    "solve_corrections",
    "MosaicStats",
    "mosaic_stats",
    "run_madd",
    "run_mjpeg",
    "quantize_mosaic",
    "JPEG_STRETCH",
    "MIN_TOLERANCE",
    "MOSAIC_PATH",
    "STAGES",
    "MontageApplication",
]
