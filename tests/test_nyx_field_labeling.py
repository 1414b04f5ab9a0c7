"""Tests for the Nyx density field generator and the component labeler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from repro.apps.nyx.field import FieldConfig, generate_baryon_density
from repro.apps.nyx.labeling import DisjointSet, label_flat


def label_components(mask: np.ndarray, periodic: bool = False):
    """Dense labels of a 3-D boolean *mask* through :func:`label_flat`.

    Returns ``(labels, n_components)``: ``labels`` is int64 with 0 for
    background and components numbered from 1 in first-voxel order.
    With ``periodic=True`` opposite faces are adjacent.
    """
    if mask.ndim != 3:
        raise ValueError(f"expected a 3-D mask, got {mask.ndim}-D")
    labels = np.zeros(mask.shape, dtype=np.int64)
    flat = np.flatnonzero(mask)
    if not len(flat):
        return labels, 0
    component, n_components = label_flat(
        flat, np.unravel_index(flat, mask.shape), mask.shape, periodic)
    labels.reshape(-1)[flat] = component + 1
    return labels, n_components


class TestField:
    CONFIG = FieldConfig(shape=(24, 24, 24))

    def test_mean_is_exactly_one_in_storage_dtype(self):
        rho = generate_baryon_density(self.CONFIG, seed=5)
        assert rho.dtype == np.float32
        assert abs(float(rho.mean(dtype=np.float64)) - 1.0) < 1e-6

    def test_deterministic(self):
        a = generate_baryon_density(self.CONFIG, seed=5)
        b = generate_baryon_density(self.CONFIG, seed=5)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = generate_baryon_density(self.CONFIG, seed=5)
        b = generate_baryon_density(self.CONFIG, seed=6)
        assert not np.array_equal(a, b)

    def test_positive(self):
        rho = generate_baryon_density(self.CONFIG, seed=5)
        assert (rho > 0).all()

    def test_has_halo_overdensities(self):
        rho = generate_baryon_density(FieldConfig(), seed=2021)
        assert rho.max() > 81.66  # candidates exist at the paper threshold

    def test_halo_count_scales(self):
        few = FieldConfig(shape=(32, 32, 32), n_halos=2)
        many = FieldConfig(shape=(32, 32, 32), n_halos=12)
        rho_few = generate_baryon_density(few, seed=3)
        rho_many = generate_baryon_density(many, seed=3)
        thr = 50.0
        assert (rho_many > thr).sum() > (rho_few > thr).sum()


class TestDisjointSet:
    def test_union_find(self):
        dsu = DisjointSet(5)
        dsu.union(0, 1)
        dsu.union(3, 4)
        assert dsu.find(1) == dsu.find(0)
        assert dsu.find(3) == dsu.find(4)
        assert dsu.find(0) != dsu.find(3)

    def test_roots_resolves_chains(self):
        dsu = DisjointSet(4)
        dsu.union(0, 1)
        dsu.union(1, 2)
        dsu.union(2, 3)
        assert len(set(dsu.roots().tolist())) == 1


class TestLabeling:
    def test_empty_mask(self):
        labels, n = label_components(np.zeros((3, 3, 3), dtype=bool))
        assert n == 0 and labels.sum() == 0

    def test_single_voxel(self):
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[1, 1, 1] = True
        labels, n = label_components(mask)
        assert n == 1 and labels[1, 1, 1] == 1

    def test_diagonal_not_connected(self):
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 1] = True
        _, n = label_components(mask)
        assert n == 2

    def test_face_connected(self):
        mask = np.zeros((3, 3, 3), dtype=bool)
        mask[0, 0, 0] = mask[0, 0, 1] = mask[0, 1, 1] = True
        _, n = label_components(mask)
        assert n == 1

    def test_periodic_wrap(self):
        mask = np.zeros((4, 1, 1), dtype=bool)
        mask[0] = mask[3] = True
        _, n_open = label_components(mask, periodic=False)
        _, n_wrap = label_components(mask, periodic=True)
        assert n_open == 2 and n_wrap == 1

    def test_non_3d_rejected(self):
        with pytest.raises(ValueError):
            label_components(np.zeros((2, 2), dtype=bool))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.5))
    def test_matches_scipy_reference(self, seed, density):
        """Property: identical component structure to scipy.ndimage.label
        with the 6-connectivity structuring element."""
        rng = np.random.default_rng(seed)
        mask = rng.random((6, 6, 6)) < density
        ours, n_ours = label_components(mask)
        structure = ndimage.generate_binary_structure(3, 1)
        theirs, n_theirs = ndimage.label(mask, structure=structure)
        assert n_ours == n_theirs
        if n_ours:
            # Label numbering may differ; compare the partition itself.
            pairs = set(zip(ours[mask].tolist(), theirs[mask].tolist()))
            assert len(pairs) == n_ours  # bijection between label sets
