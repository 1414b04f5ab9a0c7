"""Bit-identity of the candidate-only halo finder against the dense one.

The reference below is the halo finder and labeler as they stood when
both scanned the whole volume: the labeler unioned every adjacent
foreground pair over full-size index arrays, and the finder summed
counts, masses and centres with ``np.bincount`` over every voxel.  It is
kept verbatim, apart from names, so the candidate-only code is checked
against the code whose outputs the committed fixtures pin: catalog
text, candidate counts, and each halo's position bytes, mass and cell
count must be equal, on the golden fields and on fields corrupted
through every branch of the finder (non-finite and negative averages,
the 10 % bail-out).  Labels must be equal on random masks.
"""

from __future__ import annotations

import tracemalloc
from typing import List, Tuple

import numpy as np
import pytest

from repro.apps.nyx.halo_finder import (
    DEFAULT_MIN_CELLS,
    DEFAULT_THRESHOLD_FACTOR,
    Halo,
    HaloCatalog,
    candidate_count,
    find_halos,
)
from repro.experiments.params import nyx_default, nyx_small

from tests.test_nyx_field_labeling import label_components

# -- the dense reference -------------------------------------------------------


class ReferenceDisjointSet:
    """Array-based union-find with path compression (vectorized find)."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        # Path compression.
        while self.parent[x] != root:
            self.parent[x], x = root, int(self.parent[x])
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Attach the larger id under the smaller so labels stay stable.
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb

    def roots(self) -> np.ndarray:
        """Resolve every element to its root (iterated pointer jumping)."""
        parent = self.parent.copy()
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                return parent
            parent = grand


def reference_label_components(mask: np.ndarray, periodic: bool = False) -> Tuple[np.ndarray, int]:
    """Label 6-connected components of a 3-D boolean *mask*.

    Returns ``(labels, n_components)`` where ``labels`` is int64 with 0
    for background and components numbered from 1 in first-voxel order
    (deterministic).  With ``periodic=True`` opposite faces are adjacent,
    matching a cosmological box.
    """
    if mask.ndim != 3:
        raise ValueError(f"expected a 3-D mask, got {mask.ndim}-D")
    mask = np.ascontiguousarray(mask, dtype=bool)
    n = mask.size
    if n == 0 or not mask.any():
        return np.zeros(mask.shape, dtype=np.int64), 0

    flat_index = np.arange(n, dtype=np.int64).reshape(mask.shape)
    dsu = ReferenceDisjointSet(n)

    def merge_axis(axis: int) -> None:
        # Pairs of adjacent foreground voxels along *axis*.
        a = [slice(None)] * 3
        b = [slice(None)] * 3
        a[axis] = slice(0, -1)
        b[axis] = slice(1, None)
        both = mask[tuple(a)] & mask[tuple(b)]
        ia = flat_index[tuple(a)][both]
        ib = flat_index[tuple(b)][both]
        for x, y in zip(ia.tolist(), ib.tolist()):
            dsu.union(x, y)
        if periodic and mask.shape[axis] > 1:
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = 0
            hi[axis] = mask.shape[axis] - 1
            wrap = mask[tuple(lo)] & mask[tuple(hi)]
            ia = flat_index[tuple(lo)][wrap]
            ib = flat_index[tuple(hi)][wrap]
            for x, y in zip(ia.tolist(), ib.tolist()):
                dsu.union(x, y)

    for axis in range(3):
        merge_axis(axis)

    roots = dsu.roots().reshape(mask.shape)
    fg_roots = roots[mask]
    unique_roots = np.unique(fg_roots)
    lut = np.zeros(n, dtype=np.int64)
    lut[unique_roots] = np.arange(1, len(unique_roots) + 1)
    labels = np.zeros(mask.shape, dtype=np.int64)
    labels[mask] = lut[fg_roots]
    return labels, int(len(unique_roots))


def reference_find_halos(rho: np.ndarray,
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
    values = np.asarray(rho, dtype=np.float64)
    average = float(values.mean())
    threshold = threshold_factor * average

    if not np.isfinite(average):
        return HaloCatalog(halos=[], average_value=average,
                           threshold=threshold, n_candidates=0)

    with np.errstate(invalid="ignore"):
        candidates = values > threshold
    candidates &= np.isfinite(values)
    n_candidates = int(candidates.sum())
    if n_candidates == 0:
        return HaloCatalog(halos=[], average_value=average,
                           threshold=threshold, n_candidates=0)
    if threshold <= 0 or n_candidates > values.size // 10:
        # Degenerate input (negative/garbage average turning most of the
        # box into "candidates"): the finder bails out with no halos, the
        # visible failure the detected class captures.
        return HaloCatalog(halos=[], average_value=average,
                           threshold=threshold, n_candidates=n_candidates)

    labels, n_components = reference_label_components(candidates, periodic=periodic)
    halos: List[Halo] = []
    if n_components:
        flat_labels = labels.ravel()
        flat_values = values.ravel()
        counts = np.bincount(flat_labels, minlength=n_components + 1)
        masses = np.bincount(flat_labels, weights=flat_values,
                             minlength=n_components + 1)
        coords = np.unravel_index(np.arange(values.size), values.shape)
        centers = np.empty((n_components + 1, 3), dtype=np.float64)
        for axis in range(3):
            weighted = np.bincount(flat_labels,
                                   weights=flat_values * coords[axis],
                                   minlength=n_components + 1)
            with np.errstate(invalid="ignore", divide="ignore"):
                centers[:, axis] = weighted / masses
        for label in range(1, n_components + 1):
            if counts[label] >= min_cells:
                halos.append(Halo(position=centers[label],
                                  n_cells=int(counts[label]),
                                  mass=float(masses[label])))
    # Deterministic ordering: by first (z, y, x) centre coordinate.
    halos.sort(key=lambda h: (h.position[0], h.position[1], h.position[2]))
    return HaloCatalog(halos=halos, average_value=average,
                       threshold=threshold, n_candidates=n_candidates)


# -- helpers ---------------------------------------------------------------------

MODES = [(periodic, min_cells) for periodic in (False, True)
         for min_cells in (1, 8)]


def assert_same_catalog(rho: np.ndarray, periodic: bool, min_cells: int,
                        where: str) -> HaloCatalog:
    ours = find_halos(rho, min_cells=min_cells, periodic=periodic)
    ref = reference_find_halos(rho, min_cells=min_cells, periodic=periodic)
    where = f"{where}, periodic={periodic}, min_cells={min_cells}"
    assert ours.to_text() == ref.to_text(), where
    assert ours.n_candidates == ref.n_candidates, where
    assert np.float64(ours.average_value).tobytes() == \
        np.float64(ref.average_value).tobytes(), where
    assert np.float64(ours.threshold).tobytes() == \
        np.float64(ref.threshold).tobytes(), where
    assert len(ours.halos) == len(ref.halos), where
    for mine, theirs in zip(ours.halos, ref.halos):
        assert mine.position.tobytes() == theirs.position.tobytes(), where
        assert np.float64(mine.mass).tobytes() == \
            np.float64(theirs.mass).tobytes(), where
        assert mine.n_cells == theirs.n_cells, where
    assert candidate_count(rho) == ref.n_candidates, where
    return ref


def flip_bits(field: np.ndarray, seed: int) -> np.ndarray:
    """A copy of the float32 *field* with a seeded multi-bit flip.

    One to three cells each get one to three bits flipped, half of them
    exponent or sign bits: that drives the average to NaN or to a
    negative value.  One cell in ten instead gets the burst that turns
    it into an infinity (every exponent bit set, every mantissa bit
    cleared), the only way a float32 field's float64 mean overflows.
    """
    rng = np.random.default_rng(seed)
    words = field.copy().reshape(-1).view(np.uint32)
    for cell in rng.integers(0, words.size, rng.integers(1, 4)):
        if rng.random() < 0.1:
            words[cell] ^= (words[cell] & np.uint32(0x7FFFFFFF)) \
                ^ np.uint32(0x7F800000)
            continue
        for _ in range(rng.integers(1, 4)):
            bit = rng.integers(23, 32) if rng.random() < 0.5 \
                else rng.integers(0, 23)
            words[cell] ^= np.uint32(1) << np.uint32(bit)
    return words.view(np.float32).reshape(field.shape)


def float64_field(seed: int, shape=(32, 32, 32)) -> np.ndarray:
    """A float64 field whose halos hold full-precision values.

    A float32 field's halo sums are exact in float64, whatever their
    order; these are not, so a sum taken in any other order than the
    dense finder's shows in the last bits of a mass or a centre.
    """
    rng = np.random.default_rng(seed)
    rho = rng.lognormal(0.0, 0.5, shape)
    grid = np.indices(shape)
    for _ in range(4):
        centre = rng.uniform(0, shape[0], 3)
        r2 = sum((axis - c) ** 2 for axis, c in zip(grid, centre))
        rho += rng.uniform(200.0, 800.0) * np.exp(
            -0.5 * r2 / rng.uniform(1.0, 2.0) ** 2)
    return rho / rho.mean()


@pytest.fixture(scope="module")
def golden64() -> np.ndarray:
    return nyx_default().rho


@pytest.fixture(scope="module")
def golden24() -> np.ndarray:
    return nyx_small().rho


# -- catalogs ---------------------------------------------------------------------


class TestGoldenFields:
    @pytest.mark.parametrize("periodic,min_cells", MODES)
    def test_golden_64(self, golden64, periodic, min_cells):
        ref = assert_same_catalog(golden64, periodic, min_cells, "golden 64^3")
        assert len(ref.halos) > 0

    @pytest.mark.parametrize("periodic,min_cells", MODES)
    def test_golden_24(self, golden24, periodic, min_cells):
        ref = assert_same_catalog(golden24, periodic, min_cells, "golden 24^3")
        assert len(ref.halos) > 0

    @pytest.mark.parametrize("periodic,min_cells", MODES)
    def test_float64_input(self, golden64, periodic, min_cells):
        assert_same_catalog(golden64.astype(np.float64), periodic, min_cells,
                            "golden 64^3 as float64")

    def test_non_contiguous_input(self, golden24):
        assert_same_catalog(golden24.transpose(2, 0, 1)[:, ::-1], True, 1,
                            "golden 24^3, transposed and reversed")


class TestFullPrecisionFields:
    """Float64 halos pin the order of every float sum."""

    def test_float64_fields(self):
        for seed in range(12):
            for periodic, min_cells in MODES:
                ref = assert_same_catalog(float64_field(seed), periodic,
                                          min_cells, f"float64 seed {seed}")
                assert ref.halos


class TestFlippedFields:
    """Seeded multi-bit flips reach every branch of the finder."""

    def check(self, field: np.ndarray, seeds: range) -> set:
        reached = set()
        for seed in seeds:
            rho = flip_bits(field, seed)
            for periodic, min_cells in MODES:
                with np.errstate(over="ignore", invalid="ignore"):
                    ref = assert_same_catalog(rho, periodic, min_cells,
                                              f"flip seed {seed}")
            if np.isnan(ref.average_value):
                reached.add("nan")
            elif np.isinf(ref.average_value):
                reached.add("inf")
            elif ref.average_value < 0:
                reached.add("negative")
            if ref.n_candidates > rho.size // 10:
                reached.add("bail-out")
            if ref.halos:
                reached.add("halos")
        return reached

    def test_flips_24(self, golden24):
        assert self.check(golden24, range(300)) == {
            "nan", "inf", "negative", "bail-out", "halos"}

    def test_flips_64(self, golden64):
        # Fewer seeds at the campaign's scale: the 24^3 sweep above
        # already walks every branch.
        assert self.check(golden64, range(1000, 1030)) >= {
            "nan", "inf", "halos"}


# -- labels -------------------------------------------------------------------


class TestRandomMasks:
    SHAPES = [(6, 6, 6), (9, 5, 7), (2, 3, 4), (1, 7, 9), (5, 1, 6),
              (4, 6, 1), (1, 1, 12), (1, 1, 1), (12, 2, 2)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("periodic", [False, True])
    def test_labels_match(self, shape, periodic):
        rng = np.random.default_rng(sum(shape) * 7 + periodic)
        for _ in range(20):
            mask = rng.random(shape) < rng.uniform(0.05, 0.7)
            for view in (mask, mask.transpose(2, 0, 1)):
                ours, n_ours = label_components(view, periodic=periodic)
                ref, n_ref = reference_label_components(view,
                                                        periodic=periodic)
                assert n_ours == n_ref
                assert ours.dtype == ref.dtype
                assert np.array_equal(ours, ref)

    def test_non_bool_mask(self):
        mask = np.random.default_rng(3).integers(0, 3, (5, 6, 7))
        ours, n_ours = label_components(mask, periodic=True)
        ref, n_ref = reference_label_components(mask, periodic=True)
        assert n_ours == n_ref and np.array_equal(ours, ref)

    def test_empty_volume(self):
        labels, n = label_components(np.zeros((0, 4, 4), dtype=bool))
        assert n == 0 and labels.shape == (0, 4, 4)


# -- allocation -----------------------------------------------------------------


class TestAllocation:
    """The finder's temporaries follow the candidates, not the volume."""

    @staticmethod
    def peak(rho: np.ndarray) -> int:
        find_halos(rho)
        tracemalloc.start()
        try:
            find_halos(rho)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_golden_64_peaks_under_one_mib(self, golden64):
        # The dense finder peaked at 10.8 MB on this input.
        assert self.peak(golden64.astype(np.float64)) < 2**20

    def test_float32_input_adds_only_the_float64_copy(self, golden64):
        # The average is the mean of the field as float64 -- the dense
        # finder's exact sum -- so a float32 field pays for one float64
        # copy and nothing else that scales with the volume.
        assert self.peak(golden64) < 2**20 + golden64.size * 8
