"""Tests for statistics, tables, and distribution helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.distributions import mass_histogram
from repro.analysis.stats import (
    campaign_error_bars,
    normal_interval,
    rate_estimate,
    wilson_interval,
)
from repro.analysis.tables import format_percent, render_table
from repro.apps.nyx.halo_finder import Halo, HaloCatalog
from repro.core.outcomes import Outcome, OutcomeTally


class TestIntervals:
    def test_paper_error_bar_claim(self):
        """1,000 runs leave a ~1-2 % error bar at 95 % confidence."""
        for k in (100, 500, 900):
            est = normal_interval(k, 1000)
            assert 0.005 < est.half_width < 0.035

    def test_normal_interval_midpoint(self):
        est = normal_interval(500, 1000)
        assert est.rate == 0.5
        assert est.low == pytest.approx(0.469, abs=1e-3)

    def test_wilson_behaves_at_extremes(self):
        zero = wilson_interval(0, 100)
        assert zero.rate == 0.0
        assert zero.low == 0.0
        assert 0 < zero.high < 0.06
        full = wilson_interval(100, 100)
        assert full.high == 1.0
        assert 0.94 < full.low < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            normal_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            rate_estimate(1, 10, method="psychic")

    @given(st.integers(0, 200), st.integers(1, 200))
    def test_wilson_contains_rate(self, k, n):
        k = min(k, n)
        est = wilson_interval(k, n)
        assert est.low <= est.rate <= est.high
        assert 0.0 <= est.low and est.high <= 1.0

    def test_campaign_error_bars(self):
        tally = OutcomeTally()
        for _ in range(90):
            tally.add(Outcome.BENIGN)
        for _ in range(10):
            tally.add(Outcome.SDC)
        bars = campaign_error_bars(tally)
        assert bars[Outcome.BENIGN].rate == 0.9
        # The mean half-width across outcomes (the paper's "error bar").
        assert sum(e.half_width for e in bars.values()) / len(bars) > 0


class TestTables:
    def test_render_table_aligns(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({len(ln) for ln in lines if ln}) == 1   # uniform width

    def test_row_length_validated(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])

    def test_format_percent(self):
        assert format_percent(0.857) == "85.7%"


class TestDistributions:
    def catalog(self, masses):
        return HaloCatalog(halos=[Halo(np.zeros(3), 10, m) for m in masses],
                           average_value=1.0)

    def test_mass_histogram(self):
        hist = mass_histogram(self.catalog([10.0, 20.0, 1000.0]), n_bins=4,
                              mass_range=(5, 2000))
        assert hist.n_halos == 3
        centres, counts = hist.series()
        assert len(centres) == 4
        assert counts.sum() == 3

    def test_empty_catalog_needs_range(self):
        with pytest.raises(ValueError):
            mass_histogram(self.catalog([]))
        hist = mass_histogram(self.catalog([]), 4, (5, 2000))
        assert hist.n_halos == 0

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            mass_histogram(self.catalog([10.0]), 4, (-1, 10))
