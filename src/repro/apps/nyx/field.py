"""Synthetic baryon-density field generator for the Nyx workload.

Nyx evolves a cosmological density field whose over-densities (halos)
reach orders of magnitude above the mean while the *mean itself is
exactly 1* -- mass conservation, the invariant the paper's average-value
detector rests on.  We synthesize a field with the same decision-relevant
structure: a smoothed lognormal background plus a population of compact
high-density peaks, normalized to mean exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.util.rngstream import RngStream

#: Elements per block of the periodic smoothing (128 KiB of float64):
#: its temporaries stay a few blocks, not a volume.
_SMOOTH_BLOCK = 2 ** 14


@dataclass(frozen=True)
class FieldConfig:
    """Parameters of the synthetic field.

    Defaults give ~8-12 well-separated halos occupying ~0.1 % of the
    volume at 64^3 -- comparable, at our reduced scale, to the sparse
    halo population of the paper's 512^3 Nyx snapshot.
    """

    shape: Tuple[int, int, int] = (64, 64, 64)
    background_sigma: float = 0.5    # lognormal width of the background
    smoothing: float = 1.5           # gaussian smoothing of the background
    n_halos: int = 6
    halo_amplitude: Tuple[float, float] = (150.0, 600.0)
    halo_radius: Tuple[float, float] = (0.8, 1.25)
    dtype: np.dtype = np.float32


def _smooth_periodic(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing of float64 *x* on a periodic grid.

    Bit for bit ``scipy.ndimage.gaussian_filter(x, sigma, mode="wrap")``:
    the same truncated, normalized kernel, one axis after another, and
    per output sample scipy's symmetric sum ``x[i] * w[r]`` plus
    ``(x[i-j] + x[i+j]) * w[r-j]`` for j = r, ..., 1, in that order.
    Each axis is done in blocks of whole lines, read wrap-padded, so the
    temporaries are a few blocks, never a volume.  *x* is overwritten:
    it and one other volume take the passes in turn.
    """
    r = int(4.0 * sigma + 0.5)
    phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (phi / phi.sum())[::-1]
    src, dst = x, np.empty_like(x)
    for axis in range(x.ndim):
        n = x.shape[axis]
        wrap = np.arange(-r, n + r) % n
        lead = 1 if axis == 0 else 0
        step = max(1, _SMOOTH_BLOCK * x.shape[lead] // x.size)
        for k in range(0, x.shape[lead], step):
            block = (slice(None),) * lead + (slice(k, k + step),)
            # The block's lines along *axis* come first in both views.
            padded = np.moveaxis(np.take(src[block], wrap, axis=axis), axis, 0)
            acc = np.moveaxis(dst[block], axis, 0)
            term = np.empty_like(acc)
            np.multiply(padded[r:r + n], w[r], out=acc)
            for j in range(r, 0, -1):
                np.add(padded[r - j:r - j + n], padded[r + j:r + j + n],
                       out=term)
                term *= w[r - j]
                acc += term
        src, dst = dst, src
    return src


def _periodic_sq_distance(n: int, center: float) -> np.ndarray:
    """Squared distance of each of *n* cells to *center*, wrapped as in a
    cosmological box."""
    d = np.abs(np.arange(n) - center)
    d = np.minimum(d, n - d)
    return d * d


def generate_baryon_density(config: FieldConfig, seed: int) -> np.ndarray:
    """Generate a baryon-density field with mean exactly 1 (float32).

    Deterministic given (*config*, *seed*).  At most two float64
    volumes are alive at once, plus a few blocks while smoothing.
    """
    stream = RngStream(seed, "nyx", "field")
    rng = stream.generator()

    noise = rng.standard_normal(config.shape)
    rho = _smooth_periodic(noise, config.smoothing)
    del noise
    rho /= max(rho.std(), 1e-12)
    rho *= config.background_sigma
    np.exp(rho, out=rho)

    nz, ny, nx = config.shape
    profile = np.empty(config.shape)
    for _ in range(config.n_halos):
        center = rng.uniform(0, [nz, ny, nx])
        amp = rng.uniform(*config.halo_amplitude)
        radius = rng.uniform(*config.halo_radius)
        # amp * exp(-0.5 * r2 / radius^2), r2 summed z + y + x in place.
        np.add(_periodic_sq_distance(nz, center[0])[:, None, None],
               _periodic_sq_distance(ny, center[1])[:, None], out=profile)
        profile += _periodic_sq_distance(nx, center[2])
        profile *= -0.5
        profile /= radius * radius
        np.exp(profile, out=profile)
        profile *= amp
        rho += profile
    del profile

    # Mass conservation: mean exactly 1 in float64, then cast.
    rho /= rho.mean(dtype=np.float64)
    rho = rho.astype(config.dtype)
    # The float32 cast can nudge the mean by ~1e-7; renormalize once more
    # in the storage dtype so the invariant holds for the written bytes.
    rho /= np.float32(rho.mean(dtype=np.float64))
    return rho
