"""Bit-identity of the numpy-only Nyx field against the scipy one.

The reference below is the field generator as it stood when it smoothed
the background with ``scipy.ndimage.gaussian_filter(..., mode="wrap")``
and built every halo profile over full-volume ``meshgrid`` distances.
It is kept verbatim, apart from its name, so the generator that smooths
with numpy in blocks and sums per-axis distances into one buffer is
checked against the code whose fields the committed fixtures pin: the
bytes must be equal for every seed and configuration below, including
a smoothing radius wider than every axis.  scipy is needed only here,
as the oracle; the guard at the end proves the program never loads it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from repro.apps.nyx.field import (
    FieldConfig,
    _smooth_periodic,
    generate_baryon_density,
)
from repro.util.rngstream import RngStream

from tests.test_lint import blocked_script

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# -- the scipy reference -------------------------------------------------------


def reference_baryon_density(config: FieldConfig, seed: int) -> np.ndarray:
    """Generate a baryon-density field with mean exactly 1 (float32).

    Deterministic given (*config*, *seed*).
    """
    stream = RngStream(seed, "nyx", "field")
    rng = stream.generator()

    noise = rng.standard_normal(config.shape)
    smooth = ndimage.gaussian_filter(noise, sigma=config.smoothing, mode="wrap")
    smooth /= max(smooth.std(), 1e-12)
    rho = np.exp(config.background_sigma * smooth)

    nz, ny, nx = config.shape
    zz, yy, xx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                             indexing="ij")
    for _ in range(config.n_halos):
        center = rng.uniform(0, [nz, ny, nx])
        amp = rng.uniform(*config.halo_amplitude)
        radius = rng.uniform(*config.halo_radius)
        # Periodic (wrapped) distances, as in a cosmological box.
        dz = np.minimum(np.abs(zz - center[0]), nz - np.abs(zz - center[0]))
        dy = np.minimum(np.abs(yy - center[1]), ny - np.abs(yy - center[1]))
        dx = np.minimum(np.abs(xx - center[2]), nx - np.abs(xx - center[2]))
        r2 = dz * dz + dy * dy + dx * dx
        rho += amp * np.exp(-0.5 * r2 / (radius * radius))

    # Mass conservation: mean exactly 1 in float64, then cast.
    rho /= rho.mean(dtype=np.float64)
    rho = rho.astype(config.dtype)
    # The float32 cast can nudge the mean by ~1e-7; renormalize once more
    # in the storage dtype so the invariant holds for the written bytes.
    rho /= np.float32(rho.mean(dtype=np.float64))
    return rho


# -- bit identity --------------------------------------------------------------

CONFIGS = {
    "default-64": FieldConfig(),
    "32x48x40-12-halos": FieldConfig(shape=(32, 48, 40), n_halos=12),
    "24-cube": FieldConfig(shape=(24, 24, 24)),
    # int(4 * 2.3 + 0.5) = 9: the kernel wraps more than once on every axis.
    "radius-wider-than-axes": FieldConfig(shape=(5, 7, 3), smoothing=2.3),
}


@pytest.mark.parametrize("seed", [2021, 1, 5, 7])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_field_matches_scipy_reference(name, seed):
    config = CONFIGS[name]
    got = generate_baryon_density(config, seed)
    want = reference_baryon_density(config, seed)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sigma", [0.7, 1.5, 2.3])
@pytest.mark.parametrize("shape", [(64, 64, 64), (32, 48, 40), (5, 7, 3)])
def test_smoothing_matches_gaussian_filter(shape, sigma):
    x = np.random.default_rng(11).standard_normal(shape)
    want = ndimage.gaussian_filter(x, sigma, mode="wrap")
    # The smoothing overwrites its input; the oracle must not see that.
    got = _smooth_periodic(x.copy(), sigma)
    assert got.tobytes() == want.tobytes()


# -- memory --------------------------------------------------------------------


class TestAllocation:
    """The generator's temporaries stay a few volumes, not a dozen."""

    @staticmethod
    def peak_volumes(config: FieldConfig, seed: int) -> float:
        generate_baryon_density(config, seed)
        tracemalloc.start()
        try:
            generate_baryon_density(config, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * int(np.prod(config.shape)))

    def test_default_field_peaks_under_four_float64_volumes(self):
        # The scipy and meshgrid generator peaked at 13.0 volumes.
        assert self.peak_volumes(FieldConfig(), 2021) <= 4.0


# -- no scipy at runtime -------------------------------------------------------


NO_SCIPY = """
import repro
import repro.cli
from repro.apps.montage import MontageApplication, SkyConfig
from repro.apps.nyx import FieldConfig, NyxApplication
from repro.apps.qmcpack import DmcParams, QmcpackApplication, VmcParams
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem
from repro.study.apps import app_ids, resolve_app_factory

SMALL = {
    "nyx": lambda: NyxApplication(
        seed=3, field_config=FieldConfig(shape=(16, 16, 16), n_halos=2)),
    "nyx-small": lambda: resolve_app_factory("nyx-small")(),
    "qmcpack": lambda: QmcpackApplication(
        seed=3, vmc_params=VmcParams(n_walkers=24, n_blocks=12,
                                     warmup_blocks=2),
        dmc_params=DmcParams(target_walkers=24, n_blocks=30),
        equilibration=5),
    "montage": lambda: MontageApplication(
        seed=3, sky_config=SkyConfig(canvas_shape=(48, 48),
                                     tile_shape=(32, 32), n_tiles=4)),
}
assert sorted(SMALL) == app_ids(), (sorted(SMALL), app_ids())
for app_id in app_ids():
    resolve_app_factory(app_id)
    with mount(FFISFileSystem()) as mp:
        SMALL[app_id]().capture_golden(mp)
assert not blocker.attempts, blocker.attempts
print("captured", " ".join(app_ids()))
"""


def test_no_scipy_module_loads_at_runtime():
    """Importing the package and CLI, and building and golden-capturing
    every registered application, never imports scipy (a caught
    ImportError would still be recorded as an attempt)."""
    script = blocked_script(("scipy",), NO_SCIPY)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "captured montage nyx nyx-small qmcpack" in proc.stdout
