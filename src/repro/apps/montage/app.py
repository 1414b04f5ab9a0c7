"""The Montage application-under-test: 4-stage mosaic of synthetic m101.

Stages (the paper's four most I/O-intensive, injected as MT1..MT4):

1. ``mProjExec`` -- reproject each raw image (+ area images),
2. ``mDiffExec`` -- difference every overlapping pair,
3. ``mBgExec``   -- plane-fit differences, solve and apply background
   corrections,
4. ``mAdd``      -- co-add into the mosaic + statistics summary.

Raw-image staging happens in a separate ``stage_raw`` phase so campaigns
can exclude it (the paper injects into the pipeline stages, not into the
2MASS inputs).

Outcome classification (Sec. IV-C.3): mosaic bit-wise identical →
benign; else the "min" statistic within 10^-2 of golden → SDC, outside →
detected; missing/unreadable mosaic → crash.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.base import GoldenRecord, HpcApplication, RunStep
from repro.apps.montage.add import MosaicStats, mosaic_stats, run_madd, run_mjpeg
from repro.apps.montage.background import PlaneFit, fit_diff, mbg_apply, mbg_fit
from repro.apps.montage.diff import (
    MIN_OVERLAP_PIXELS,
    DiffRecord,
    overlap_box,
    placement_of,
)
from repro.apps.montage.image import RawTile, SkyConfig, make_raw_tiles
from repro.apps.montage.project import ProjectedPaths, project_tile
from repro.core.outcomes import Outcome
from repro.errors import FormatError
from repro.fusefs.mount import MountPoint
from repro.mfits.hdu import ImageHDU
from repro.mfits.io import read_fits, write_fits

RAW_DIR = "/montage/raw"
PROJ_DIR = "/montage/projdir"
DIFF_DIR = "/montage/diffdir"
CORR_DIR = "/montage/corrdir"
OUT_DIR = "/montage/out"
MOSAIC_PATH = f"{OUT_DIR}/m101_mosaic.fits"
STATS_PATH = f"{OUT_DIR}/m101_stats.txt"
JPEG_PATH = f"{OUT_DIR}/m101_mosaic.jpg"

#: The paper accepts a 10^-2 window on the final "min" statistic.
MIN_TOLERANCE = 1e-2

#: Stage names in paper order (MT1..MT4).
STAGES = ("mProjExec", "mDiffExec", "mBgExec", "mAdd")


class MontageApplication(HpcApplication):
    """Synthetic m101 mosaic pipeline.

    A difference image's plane fit is a pure function of its file
    bytes, so the golden capture keeps its ``mBg_fit`` fits on the
    replay image (:meth:`keep_golden`), keyed by the exact bytes of
    each difference file.  A replayed run takes the golden fit of every
    difference file whose bytes still match and refits only the ones
    that changed; forked pool and fleet workers inherit the fits with
    the golden record.  Cold execution (:meth:`execute`, which
    ``--no-replay`` forces) always fits: it stays the from-scratch
    reference replayed records are checked against.
    """

    name = "montage"

    def __init__(self, seed: int = 2021,
                 sky_config: SkyConfig = SkyConfig()) -> None:
        super().__init__()
        self.seed = seed
        self.sky_config = sky_config
        self._tiles: List[RawTile] = make_raw_tiles(sky_config, seed)
        self._steps: Optional[Tuple[RunStep, ...]] = None

    @property
    def tiles(self) -> List[RawTile]:
        return self._tiles

    # -- lifecycle ---------------------------------------------------------------

    def prepare(self, mp: MountPoint, carry) -> None:
        mp.makedirs("/montage")

    def steps(self):
        """The four pipeline stages, at per-tile replay granularity.

        ``mProjExec`` becomes one step per raw tile and ``mDiffExec``
        becomes a scan step plus one step per *potential* tile pair, so
        the prefix-replay engine can restore to the write that precedes
        the fault instead of re-executing a whole stage.  Every step of
        a stage shares the stage's phase name: consecutive same-phase
        steps are recorded as a single phase span with one phase-end
        notification, so the write windows stage-targeted campaigns
        sample from -- and the emitted records -- are unchanged.

        The step list must be static across golden and faulty runs (a
        replay image is aligned step-for-step), so the mDiff pair steps
        are *slots*: slot ``k`` executes the ``k``-th entry of the
        runtime worklist the scan step computed, or no-ops when a fault
        shrank the worklist below ``C(n_tiles, 2)``.

        ``mBgExec`` keeps its fit/apply seam: a boundary between the
        sigma-clipped plane fitting (the stage's dominant cost) and the
        corrected-image writes it feeds.

        Being static, the tuple is built on the first call and kept.
        """
        if self._steps is not None:
            return self._steps
        n = len(self._tiles)
        steps = [RunStep("stage_raw", "stage_raw", self._step_stage_raw)]
        for i in range(n):
            steps.append(RunStep(f"mProj_{i}", "mProjExec",
                                 partial(self._step_mproj_tile, index=i)))
        steps.append(RunStep("mDiff_scan", "mDiffExec", self._step_mdiff_scan))
        for k in range(n * (n - 1) // 2):
            steps.append(RunStep(f"mDiff_{k}", "mDiffExec",
                                 partial(self._step_mdiff_pair, slot=k)))
        steps.extend((RunStep("mBg_fit", "mBgExec", self._step_mbg_fit),
                      RunStep("mBg_apply", "mBgExec", self._step_mbg_apply),
                      RunStep("mAdd", "mAdd", self._step_madd)))
        self._steps = tuple(steps)
        return self._steps

    def _step_stage_raw(self, mp: MountPoint, carry) -> None:
        mp.makedirs(RAW_DIR)
        raw_paths = []
        for tile in self._tiles:
            path = f"{RAW_DIR}/2mass_{tile.name}.fits"
            write_fits(mp, path, tile.hdu)
            raw_paths.append(path)
        carry["raw_paths"] = tuple(raw_paths)

    def _step_mproj_tile(self, mp: MountPoint, carry, index: int) -> None:
        """Reproject one raw tile (``mProjExec`` executor semantics).

        A tile whose header or pixels are unusable is counted and
        skipped -- the real ``mProjExec`` executor keeps going -- and
        only a run that projects *nothing* aborts, detected by the last
        tile's step.
        """
        if index == 0:
            mp.makedirs(PROJ_DIR)
            carry["projected"] = ()
            carry["mproj_failures"] = 0
        try:
            hdu = read_fits(mp, carry["raw_paths"][index])
            proj, area, _, _ = project_tile(hdu)
        except FormatError:
            carry["mproj_failures"] = carry["mproj_failures"] + 1
        else:
            tile = proj.header["TILE"]
            image_path = f"{PROJ_DIR}/p_{tile}.fits"
            area_path = f"{PROJ_DIR}/p_{tile}_area.fits"
            write_fits(mp, image_path, proj)
            write_fits(mp, area_path, area)
            carry["projected"] = carry["projected"] + (
                ProjectedPaths(image=image_path, area=area_path),)
        if index == len(self._tiles) - 1 and not carry["projected"]:
            raise FormatError(
                f"mProjExec: all {carry['mproj_failures']} "
                "input images unusable")

    def _step_mdiff_scan(self, mp: MountPoint, carry) -> None:
        """Read every projected image and build the pair worklist
        (``mDiffExec`` executor semantics: skip unreadable inputs, keep pairs
        whose overlap clears ``MIN_OVERLAP_PIXELS``)."""
        mp.makedirs(DIFF_DIR)
        hdus = {}
        placements = {}
        for p in carry["projected"]:
            try:
                hdu = read_fits(mp, p.image)
                tile = int(hdu.header["TILE"])
                placement = placement_of(hdu)
            except (FormatError, KeyError, TypeError, ValueError):
                continue
            hdus[tile] = hdu
            placements[tile] = placement
        work = []
        tiles = sorted(hdus)
        for i, ta in enumerate(tiles):
            for tb in tiles[i + 1:]:
                y0, y1, x0, x1 = overlap_box(placements[ta], placements[tb])
                if y1 - y0 <= 0 or x1 - x0 <= 0:
                    continue
                if (y1 - y0) * (x1 - x0) < MIN_OVERLAP_PIXELS:
                    continue
                work.append((ta, tb))
        carry["diff_images"] = hdus
        carry["diff_placements"] = placements
        carry["diff_work"] = tuple(work)
        carry["diffs"] = ()

    def _step_mdiff_pair(self, mp: MountPoint, carry, slot: int) -> None:
        """Difference and write the ``slot``-th worklist pair."""
        work = carry["diff_work"]
        if slot >= len(work):
            return
        ta, tb = work[slot]
        pa = carry["diff_placements"][ta]
        pb = carry["diff_placements"][tb]
        y0, y1, x0, x1 = overlap_box(pa, pb)
        da = carry["diff_images"][ta].data[
            y0 - pa.y0:y1 - pa.y0, x0 - pa.x0:x1 - pa.x0]
        db = carry["diff_images"][tb].data[
            y0 - pb.y0:y1 - pb.y0, x0 - pb.x0:x1 - pb.x0]
        diff = (da.astype(np.float64) - db.astype(np.float64)).astype(np.float32)
        path = f"{DIFF_DIR}/diff_{ta}_{tb}.fits"
        write_fits(mp, path, ImageHDU(diff, header={
            "TILEA": ta, "TILEB": tb,
            "CRPIX1": float(x0), "CRPIX2": float(y0),
        }))
        carry["diffs"] = carry["diffs"] + (
            DiffRecord(tile_a=ta, tile_b=tb, path=path),)

    def _step_mbg_fit(self, mp: MountPoint, carry) -> None:
        """Fit every difference image and solve the corrections.

        Every difference file is still read, so file-system operations
        are those of a full fit; only the fitting is reused (see the
        class doc).
        """
        golden: Dict[bytes, PlaneFit] = self.golden_memo("plane_fits") or {}
        fits: Dict[bytes, PlaneFit] = {}

        def fit(buf: bytes, path: str) -> PlaneFit:
            plane = golden.get(buf)
            if plane is None:
                plane = fits[buf] = fit_diff(buf, path)
            return plane

        projected = carry["projected"]
        carry["background"] = mbg_fit(mp, [p.image for p in projected],
                                      carry["diffs"], CORR_DIR, fit=fit)
        self.keep_golden("plane_fits", fits)

    def _step_mbg_apply(self, mp: MountPoint, carry) -> None:
        carry["corrected"] = mbg_apply(mp, carry["background"], CORR_DIR)

    def _step_madd(self, mp: MountPoint, carry) -> None:
        projected = carry["projected"]
        mosaic_path, _, _ = run_madd(mp, carry["corrected"],
                                     [p.area for p in projected],
                                     self.sky_config.canvas_shape, OUT_DIR)
        run_mjpeg(mp, mosaic_path, JPEG_PATH)

    def output_paths(self) -> List[str]:
        return [MOSAIC_PATH, STATS_PATH, JPEG_PATH]

    # -- post-analysis ---------------------------------------------------------------

    def mosaic_statistics(self, mp: MountPoint) -> MosaicStats:
        mosaic = read_fits(mp, MOSAIC_PATH)
        return mosaic_stats(mosaic.data)

    def analyze(self, mp: MountPoint) -> Dict[str, object]:
        stats = self.mosaic_statistics(mp)
        return {
            "min": stats.min,
            "max": stats.max,
            "mean": stats.mean,
            "jpeg_bytes": mp.read_file(JPEG_PATH),
        }

    # -- classification ---------------------------------------------------------------

    def classify(self, golden: GoldenRecord, mp: MountPoint) -> Tuple[Outcome, str]:
        """The paper's rule: compare ``m101_mosaic.jpg`` bit-wise; if it
        differs, the "min" statistic of the last step decides SDC vs
        detected; a missing output is a crash."""
        if not mp.exists(JPEG_PATH) or not mp.exists(MOSAIC_PATH):
            return Outcome.CRASH, "mosaic output was not created"
        faulty = mp.read_file(JPEG_PATH)
        if faulty == golden.analysis["jpeg_bytes"]:
            return Outcome.BENIGN, "m101_mosaic.jpg bit-wise identical"
        stats = self.mosaic_statistics(mp)
        golden_min = golden.analysis["min"]
        if np.isfinite(stats.min) and abs(stats.min - golden_min) <= MIN_TOLERANCE:
            return Outcome.SDC, (
                f"image differs but min {stats.min:.4f} within "
                f"{MIN_TOLERANCE} of golden {golden_min:.4f}")
        return Outcome.DETECTED, (
            f"min {stats.min:.4f} deviates from golden {golden_min:.4f}")
