"""Tests for the grid halo finder."""

import numpy as np
import pytest

from repro.apps.nyx.halo_finder import (
    HaloCatalog,
    average_value_check,
    candidate_count,
    find_halos,
)


def field_with_blob(shape=(16, 16, 16), center=(8, 8, 8), amplitude=500.0,
                    radius=1.2):
    """Background of ones plus one gaussian blob, mean renormalized to 1."""
    zz, yy, xx = np.meshgrid(*(np.arange(s) for s in shape), indexing="ij")
    r2 = sum((g - c) ** 2 for g, c in zip((zz, yy, xx), center))
    rho = 1.0 + amplitude * np.exp(-0.5 * r2 / radius**2)
    return rho / rho.mean()


class TestFindHalos:
    def test_finds_the_blob(self):
        catalog = find_halos(field_with_blob(), min_cells=4)
        assert len(catalog) == 1
        assert catalog.halos[0].n_cells >= 4
        assert np.allclose(catalog.halos[0].position, (8, 8, 8), atol=0.5)

    def test_min_cells_filters(self):
        rho = field_with_blob(radius=0.6)   # tiny blob
        small = find_halos(rho, min_cells=1)
        large = find_halos(rho, min_cells=50)
        assert len(small) >= 1
        assert len(large) == 0

    def test_threshold_is_relative_to_average(self):
        rho = field_with_blob()
        catalog = find_halos(rho)
        assert catalog.threshold == pytest.approx(81.66 * rho.mean())
        # Scaling the whole field must not change the candidate set.
        assert candidate_count(rho * 4.0) == candidate_count(rho)

    def test_uniform_field_has_no_halos(self):
        catalog = find_halos(np.ones((8, 8, 8)))
        assert len(catalog) == 0
        assert catalog.n_candidates == 0

    def test_nan_average_detected_as_no_halos(self):
        rho = field_with_blob()
        rho[0, 0, 0] = np.nan
        catalog = find_halos(rho)
        assert len(catalog) == 0
        assert not np.isfinite(catalog.average_value)

    def test_negative_threshold_bails_out(self):
        rho = field_with_blob()
        rho[0, 0, 0] = -1e9 * rho.size   # garbage average
        catalog = find_halos(rho)
        assert len(catalog) == 0

    def test_mass_is_sum_over_cells(self):
        rho = field_with_blob()
        catalog = find_halos(rho, min_cells=4)
        halo = catalog.halos[0]
        mask = rho > catalog.threshold
        assert halo.mass == pytest.approx(rho[mask].sum())

    def test_catalog_text_is_stable(self):
        rho = field_with_blob()
        assert find_halos(rho).to_text() == find_halos(rho).to_text()
        assert "# mean: 1.000" in find_halos(rho).to_text()

    def test_catalog_text_ordering_deterministic(self):
        rho = field_with_blob() + field_with_blob(center=(3, 3, 3)) - 1.0
        rho /= rho.mean()
        text = find_halos(rho, min_cells=2).to_text()
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert lines == sorted(lines, key=lambda ln: float(ln.split()[0]))

    def test_non_3d_rejected(self):
        with pytest.raises(ValueError):
            find_halos(np.ones((4, 4)))

    def test_empty_catalog_properties(self):
        catalog = HaloCatalog()
        assert catalog.masses.shape == (0,)
        assert catalog.positions.shape == (0, 3)


class TestAverageValueCheck:
    def test_accepts_conserved_mass(self):
        assert average_value_check(np.ones((4, 4, 4)))

    def test_rejects_point_one_percent_shift(self):
        """The paper: every DW SDC shifted the average by >= 0.1 %."""
        rho = np.ones((10, 10, 10))
        rho[:2] = 0.994
        assert not average_value_check(rho)

    def test_rejects_nan(self):
        rho = np.ones((4, 4, 4))
        rho[0, 0, 0] = np.nan
        assert not average_value_check(rho)
