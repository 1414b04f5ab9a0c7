"""Halo-mass distributions (the paper's Fig. 8)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.apps.nyx.halo_finder import HaloCatalog


@dataclass(frozen=True)
class MassHistogram:
    """Halo counts per logarithmic mass bin."""

    bin_edges: np.ndarray
    counts: np.ndarray

    @property
    def n_halos(self) -> int:
        return int(self.counts.sum())

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(bin centres, counts) -- the plottable Fig. 8 series."""
        centres = np.sqrt(self.bin_edges[:-1] * self.bin_edges[1:])
        return centres, self.counts


def mass_histogram(catalog: HaloCatalog, n_bins: int = 8,
                   mass_range: Optional[Tuple[float, float]] = None) -> MassHistogram:
    """Histogram halo masses in logarithmic bins.

    ``mass_range`` pins the binning so golden and faulty catalogs share
    bins (pass the golden catalog's range when comparing).
    """
    masses = catalog.masses
    if mass_range is None:
        if len(masses) == 0:
            raise ValueError("cannot infer a mass range from an empty catalog")
        lo, hi = float(masses.min()) * 0.9, float(masses.max()) * 1.1
    else:
        lo, hi = mass_range
    if not 0 < lo < hi:
        raise ValueError(f"bad mass range ({lo}, {hi})")
    edges = np.geomspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(masses, bins=edges)
    return MassHistogram(bin_edges=edges, counts=counts)

