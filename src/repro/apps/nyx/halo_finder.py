"""Grid halo finder: the Nyx post-analysis whose output defines outcomes.

Implements the two-criterion procedure the paper describes (Sec. V-B):

1. a cell becomes a *halo cell candidate* when its mass exceeds
   ``threshold_factor`` (default 81.66) times the average mass of the
   whole dataset, and
2. at least ``min_cells`` connected candidates must cluster to form a
   halo.

The catalog renders to text with fixed precision; campaigns compare that
text bit-wise against the golden run, exactly as the paper compares halo
finder outputs.  Because criterion 1 is *relative to the dataset
average*, global shifts of the field (dropped writes, exponent-bias
metadata faults) move the threshold with the data -- the mechanism behind
several of the paper's observations.

After the threshold pass the finder touches the candidates only (115 of
the 262,144 cells of the golden 64^3 field): their ascending flat indices feed the
labeler (:func:`~repro.apps.nyx.labeling.label_flat`) and ``np.bincount``
sums each halo's cells, mass and centre.  The catalog is bit for bit the
one a whole-volume pass gives: the average is the same float64 mean,
each label's cells arrive in the same ascending flat order, so every
float sum adds the same operands in the same order, and
``np.unravel_index`` gives the same integer coordinates.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.apps.nyx.labeling import label_flat

DEFAULT_THRESHOLD_FACTOR = 81.66
DEFAULT_MIN_CELLS = 8


@dataclass
class Halo:
    """One identified halo: centre of mass, cell count, total mass."""

    position: np.ndarray        # (z, y, x) centre of mass
    n_cells: int
    mass: float


@dataclass
class HaloCatalog:
    """The halo finder's output product."""

    halos: List[Halo] = field(default_factory=list)
    average_value: float = 0.0
    threshold: float = 0.0
    n_candidates: int = 0

    def __len__(self) -> int:
        return len(self.halos)

    @property
    def masses(self) -> np.ndarray:
        return np.array([h.mass for h in self.halos], dtype=np.float64)

    @property
    def positions(self) -> np.ndarray:
        if not self.halos:
            return np.zeros((0, 3), dtype=np.float64)
        return np.stack([h.position for h in self.halos])

    def to_text(self) -> str:
        """Fixed-precision rendering (the bit-comparable analysis output).

        Mirrors the paper's halo-finder output (the ``NVB_integral``
        product): the integral statistic of the field -- its average,
        whose golden value is exactly 1 by mass conservation -- followed
        by position, number of cells, and mass for each halo found.

        Output precision is the sensitivity boundary the paper's
        fault-model asymmetry rests on: the golden average sits at the
        centre of its rounding interval, so a dropped write's ~0.4 %
        average shift always prints differently (100 % SDC), while a
        shorn tail of in-distribution stale data shifts the average by
        ~1e-5 and rounds away (benign) unless it overwrote halo cells.
        """
        out = io.StringIO()
        out.write(f"# mean: {self.average_value:.3f}\n")
        out.write(f"# halos: {len(self.halos)}\n")
        for h in self.halos:
            out.write(
                f"{h.position[0]:.4f} {h.position[1]:.4f} {h.position[2]:.4f} "
                f"{h.n_cells:d} {h.mass:.4g}\n")
        return out.getvalue()


def _candidates(rho: np.ndarray, threshold_factor: float
                ) -> Tuple[np.ndarray, float, float, np.ndarray]:
    """The candidate rule: ``(values, average, threshold, flat)``.

    *values* is the field as float64 and *average* its mean; *flat*
    holds the ascending flat indices of the cells above
    ``threshold_factor * average``, and is empty when the average is
    not finite.  A finite average means every cell is finite (one NaN
    or infinity makes the sum non-finite), so no candidate is.
    """
    values = np.asarray(rho, dtype=np.float64)
    average = float(values.mean())
    threshold = threshold_factor * average
    if not np.isfinite(average):
        return values, average, threshold, np.empty(0, dtype=np.intp)
    return values, average, threshold, np.flatnonzero(values > threshold)


def find_halos(rho: np.ndarray,
               threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
               min_cells: int = DEFAULT_MIN_CELLS,
               periodic: bool = False) -> HaloCatalog:
    """Run the halo finder on a density field.

    Non-finite cells are treated as non-candidates but still poison the
    dataset average the way they would in the real post-analysis (NaN
    average → empty candidate set → no halos, a *detected* outcome).
    """
    if rho.ndim != 3:
        raise ValueError(f"expected a 3-D density field, got {rho.ndim}-D")
    values, average, threshold, flat = _candidates(rho, threshold_factor)
    catalog = HaloCatalog(average_value=average, threshold=threshold,
                          n_candidates=len(flat))
    if not len(flat) or threshold <= 0 or len(flat) > values.size // 10:
        # No candidates, or degenerate input (a negative/garbage average
        # turning most of the box into "candidates"): the finder bails
        # out with no halos, the visible failure the detected class
        # captures.
        return catalog

    coords = np.unravel_index(flat, values.shape)
    component, n_components = label_flat(flat, coords, values.shape,
                                         periodic=periodic)
    weights = np.take(values, flat)
    counts = np.bincount(component, minlength=n_components)
    masses = np.bincount(component, weights=weights, minlength=n_components)
    centers = np.empty((n_components, 3), dtype=np.float64)
    for axis in range(3):
        weighted = np.bincount(component, weights=weights * coords[axis],
                               minlength=n_components)
        with np.errstate(invalid="ignore", divide="ignore"):
            centers[:, axis] = weighted / masses
    for label in range(n_components):
        if counts[label] >= min_cells:
            catalog.halos.append(Halo(position=centers[label],
                                      n_cells=int(counts[label]),
                                      mass=float(masses[label])))
    # Deterministic ordering: by first (z, y, x) centre coordinate.
    catalog.halos.sort(
        key=lambda h: (h.position[0], h.position[1], h.position[2]))
    return catalog


def candidate_count(rho: np.ndarray,
                    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR) -> int:
    """Number of halo-cell candidates (Fig. 6's comparison metric)."""
    return len(_candidates(rho, threshold_factor)[3])


def average_value_check(rho: np.ndarray, expected_mean: float = 1.0,
                        rel_tol: float = 1e-3) -> bool:
    """The paper's average-value-based detector (mass conservation).

    Returns ``True`` when the dataset average matches the physical
    invariant within *rel_tol* (default 0.1 %, the deviation the paper
    reports every dropped-write SDC exceeds).
    """
    mean = float(np.asarray(rho, dtype=np.float64).mean())
    if not np.isfinite(mean):
        return False
    return abs(mean / expected_mean - 1.0) <= rel_tol
