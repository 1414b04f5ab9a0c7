"""Tests for the Montage pipeline stages."""

import numpy as np
import pytest

from repro.apps.montage import MontageApplication
from repro.apps.montage.add import (
    COVERAGE_MARGIN,
    mosaic_stats,
    quantize_mosaic,
    run_madd,
    run_mjpeg,
)
from repro.apps.montage.background import (
    PlaneFit,
    fit_plane,
    parse_fits_table,
    render_fits_table,
    solve_corrections,
)
from repro.apps.montage.diff import Placement, overlap_box
from repro.apps.montage.image import SkyConfig, generate_sky, make_raw_tiles
from repro.apps.montage.project import project_tile, shift_bilinear
from repro.errors import FormatError
from repro.mfits.hdu import ImageHDU
from repro.mfits.io import read_fits, write_fits


class TestSkyAndTiles:
    CONFIG = SkyConfig(canvas_shape=(60, 60), tile_shape=(32, 32), n_tiles=6)

    def test_sky_deterministic(self):
        a = generate_sky(self.CONFIG, seed=1)
        b = generate_sky(self.CONFIG, seed=1)
        assert np.array_equal(a, b)

    def test_sky_level_near_paper_min(self):
        sky = generate_sky(self.CONFIG, seed=1)
        assert 82.0 < sky.min() < 84.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 99])
    def test_tiles_cover_cropped_mosaic_for_any_seed(self, seed):
        """The *projected* footprint [y0+1, y0+tile) of the tile set must
        cover the margin-cropped mosaic region for every seed."""
        tiles = make_raw_tiles(self.CONFIG, seed=seed)
        assert len(tiles) == 6
        coverage = np.zeros(self.CONFIG.canvas_shape, dtype=int)
        for t in tiles:
            coverage[t.y0 + 1:t.y0 + 32, t.x0 + 1:t.x0 + 32] += 1
        assert (coverage[COVERAGE_MARGIN:-COVERAGE_MARGIN,
                         COVERAGE_MARGIN:-COVERAGE_MARGIN] >= 1).all()
        assert (coverage >= 2).any()   # overlaps exist for mDiffExec

    def test_tiles_have_distinct_backgrounds(self):
        tiles = make_raw_tiles(self.CONFIG, seed=1)
        assert len({t.background for t in tiles}) == len(tiles)


class TestProjection:
    def test_shift_bilinear_identity(self):
        pixels = np.arange(16.0).reshape(4, 4)
        out, w = shift_bilinear(pixels, 0.0, 0.0)
        assert np.array_equal(out, pixels)
        assert (w == 1).all()

    def test_shift_bilinear_half_pixel(self):
        pixels = np.tile(np.arange(5.0), (5, 1))
        out, _ = shift_bilinear(pixels, 0.0, 0.5)
        assert np.allclose(out, pixels[:, :4] + 0.5)

    def test_project_tile_aligns_to_integer_grid(self):
        """Reprojection undoes the subpixel dither: two tiles of the same
        smooth sky with different dithers agree on the mosaic grid."""
        yy, xx = np.mgrid[0:40, 0:40].astype(float)

        def tile(dy, dx):
            sampled = 0.1 * (yy[:32, :32] + dy) + 0.05 * (xx[:32, :32] + dx)
            return ImageHDU(sampled.astype(np.float32), header={
                "TILE": 0, "CRPIX1": 0.0, "CRPIX2": 0.0,
                "CDELT1": dx, "CDELT2": dy})

        p1, _, oy1, ox1 = project_tile(tile(0.3, 0.7))
        p2, _, oy2, ox2 = project_tile(tile(0.6, 0.2))
        assert (oy1, ox1) == (oy2, ox2) == (1, 1)
        assert np.allclose(p1.data, p2.data, atol=1e-4)

    def test_bad_wcs_is_format_error(self):
        hdu = ImageHDU(np.zeros((8, 8), dtype=np.float32), header={"TILE": 0})
        with pytest.raises(FormatError):
            project_tile(hdu)

    def test_unphysical_dither_rejected(self):
        hdu = ImageHDU(np.zeros((8, 8), dtype=np.float32), header={
            "TILE": 0, "CRPIX1": 0.0, "CRPIX2": 0.0,
            "CDELT1": 3.5, "CDELT2": 0.0})
        with pytest.raises(FormatError):
            project_tile(hdu)

    @staticmethod
    def run_mproj_steps(mp, raw_paths):
        """Drive the app's per-tile ``mProjExec`` steps over *raw_paths*
        (one tile per path); returns the carry they leave behind."""
        app = MontageApplication(seed=11, sky_config=SkyConfig(
            canvas_shape=(64, 64), tile_shape=(32, 32),
            n_tiles=len(raw_paths), n_stars=4))
        carry = {"raw_paths": tuple(raw_paths)}
        for step in app.steps():
            if step.phase == "mProjExec":
                step.fn(mp, carry)
        return carry

    def test_run_mproj_skips_unreadable(self, mp, rng):
        good = ImageHDU(rng.random((8, 8)).astype(np.float32), header={
            "TILE": 0, "CRPIX1": 0.0, "CRPIX2": 0.0,
            "CDELT1": 0.0, "CDELT2": 0.0})
        write_fits(mp, "/raw0.fits", good)
        mp.write_file("/raw1.fits", b"\x00" * 2880)
        carry = self.run_mproj_steps(mp, ["/raw0.fits", "/raw1.fits"])
        assert len(carry["projected"]) == 1

    def test_run_mproj_all_bad_crashes(self, mp):
        mp.write_file("/raw.fits", b"\x00" * 2880)
        with pytest.raises(FormatError):
            self.run_mproj_steps(mp, ["/raw.fits"])


class TestDiffAndBackground:
    def test_overlap_box(self):
        a = Placement(0, 0, (10, 10))
        b = Placement(5, 5, (10, 10))
        assert overlap_box(a, b) == (5, 10, 5, 10)

    def test_fit_plane_recovers_coefficients(self):
        yy, xx = np.mgrid[0:20, 0:20].astype(float)
        data = 2.0 + 0.1 * (yy + 5) + 0.05 * (xx + 7)
        hdu = ImageHDU(data.astype(np.float32), header={
            "TILEA": 0, "TILEB": 1, "CRPIX1": 7.0, "CRPIX2": 5.0})
        fit = fit_plane(hdu)
        assert fit.c0 == pytest.approx(2.0, abs=1e-3)
        assert fit.cy == pytest.approx(0.1, abs=1e-4)
        assert fit.cx == pytest.approx(0.05, abs=1e-4)

    def test_fit_plane_sigma_clips_outliers(self, rng):
        yy, xx = np.mgrid[0:20, 0:20].astype(float)
        data = 1.0 + 0.02 * yy + rng.normal(0, 0.01, (20, 20))
        data[3, 4] = 500.0   # a corrupted pixel
        hdu = ImageHDU(data.astype(np.float32), header={
            "TILEA": 0, "TILEB": 1, "CRPIX1": 0.0, "CRPIX2": 0.0})
        fit = fit_plane(hdu)
        assert fit.c0 == pytest.approx(1.0, abs=0.05)

    def test_solve_corrections_recovers_planes(self):
        # Truth: per-tile offsets; pairwise fits are exact differences.
        truth = {0: 0.5, 1: -0.2, 2: -0.3}
        fits = [PlaneFit(0, 1, truth[0] - truth[1], 0, 0),
                PlaneFit(1, 2, truth[1] - truth[2], 0, 0),
                PlaneFit(0, 2, truth[0] - truth[2], 0, 0)]
        corrections = solve_corrections(fits, [0, 1, 2])
        # Gauge: corrections sum to zero; truth already does.
        for tile, expected in truth.items():
            assert corrections[tile][0] == pytest.approx(expected, abs=1e-9)

    def test_solve_corrections_skips_unknown_tiles(self):
        fits = [PlaneFit(0, 9, 1.0, 0, 0)]
        corrections = solve_corrections(fits, [0, 1])
        assert corrections[0][0] == pytest.approx(0.0, abs=1e-9)

    def test_fits_table_roundtrip_quantizes(self):
        fits = [PlaneFit(0, 1, 0.123456, 0.00123456, -0.00234567)]
        parsed = parse_fits_table(render_fits_table(fits))
        assert parsed[0].c0 == pytest.approx(0.12, abs=1e-9)
        assert parsed[0].cy == pytest.approx(0.001, abs=1e-9)

    def test_fits_table_skips_garbage(self):
        table = render_fits_table([PlaneFit(0, 1, 1, 0, 0)])
        assert len(parse_fits_table(table + "garbage row here\n")) == 1


class TestAdd:
    def test_mosaic_stats(self):
        mosaic = np.array([[1.0, 5.0], [3.0, np.nan]])
        stats = mosaic_stats(mosaic)
        assert stats.min == 1.0 and stats.max == 5.0
        assert stats.covered_pixels == 3

    def test_all_nan_is_format_error(self):
        with pytest.raises(FormatError):
            mosaic_stats(np.full((2, 2), np.nan))

    def test_quantize_is_stable_and_absorbs_small_changes(self, rng):
        mosaic = rng.uniform(83, 200, (16, 16))
        a = quantize_mosaic(mosaic)
        b = quantize_mosaic(mosaic + 1e-4)
        assert a == quantize_mosaic(mosaic.copy())
        assert a == b   # below one grey level

    def test_quantize_sees_large_changes(self, rng):
        mosaic = rng.uniform(83, 200, (16, 16))
        changed = mosaic.copy()
        changed[3, 3] += 5.0
        assert quantize_mosaic(mosaic) != quantize_mosaic(changed)

    def test_run_madd_weighted_average(self, mp, rng):
        shape = (12, 12)
        img = np.full((8, 8), 10.0, dtype=np.float32)
        meta = {"TILE": 0, "CRPIX1": 2.0, "CRPIX2": 2.0}
        write_fits(mp, "/c0.fits", ImageHDU(img, header=dict(meta)))
        write_fits(mp, "/a0.fits", ImageHDU(np.ones((8, 8), np.float32),
                                            header=dict(meta)))
        write_fits(mp, "/c1.fits", ImageHDU(img * 3, header=dict(meta)))
        write_fits(mp, "/a1.fits", ImageHDU(np.ones((8, 8), np.float32) * 3,
                                            header=dict(meta)))
        run_madd(mp, ["/c0.fits", "/c1.fits"], ["/a0.fits", "/a1.fits"],
                 shape, "/out")
        mosaic = read_fits(mp, "/out/m101_mosaic.fits").data
        # (10*1 + 30*3)/4 = 25 in the covered region (margin-cropped).
        assert np.allclose(mosaic[2, 2], 25.0)

    def test_run_madd_no_usable_inputs_crashes(self, mp):
        mp.write_file("/bad.fits", b"\x00" * 2880)
        with pytest.raises(FormatError):
            run_madd(mp, ["/bad.fits"], ["/bad.fits"], (8, 8), "/out")

    def test_run_mjpeg_reads_from_disk(self, mp, rng):
        data = rng.uniform(83, 120, (8, 8)).astype(np.float32)
        write_fits(mp, "/m.fits", ImageHDU(data, header={"CRPIX1": 0.0,
                                                         "CRPIX2": 0.0}))
        run_mjpeg(mp, "/m.fits", "/m.jpg")
        jpg = mp.read_file("/m.jpg")
        assert jpg.startswith(b"P5\n8 8\n255\n")
        assert len(jpg) == len(b"P5\n8 8\n255\n") + 64
