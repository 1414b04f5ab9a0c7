"""Smoke and shape tests for the experiment drivers.

Campaign-heavy drivers run at reduced scale here; the benchmarks run
them at reporting scale.
"""

import numpy as np
import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.outcomes import Outcome
from repro.experiments import (
    EXPERIMENTS,
    get_experiment,
    run_figure5,
    run_figure6,
    run_figure8,
    run_figure9,
    run_table1,
    run_table4,
)
from repro.experiments.params import default_runs, nyx_small
from repro.study import Study, get_study


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "figure5", "figure6", "figure7", "figure8", "figure9",
            "multifault"}

    def test_every_experiment_has_a_bench(self):
        for exp in EXPERIMENTS.values():
            assert exp.bench.startswith(("benchmarks/", "tests/"))

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("table99")


class TestDefaultRuns:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FI_RUNS", "77")
        assert default_runs() == 77

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FI_RUNS", raising=False)
        assert default_runs(123) == 123

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_FI_RUNS", "0")
        with pytest.raises(ValueError):
            default_runs()


class TestTable1:
    def test_rows_and_render(self):
        result = run_table1()
        assert len(result.rows) == 4
        text = result.render()
        assert "Bitflip" in text and "Dropped write" in text
        assert "SUPPRESS" in text


class TestTable3:
    def test_strided_sweep_shape(self):
        table3 = get_study("table3")
        results = Study(table3.build(byte_stride=16)).run()
        tally = results.tally()
        assert tally.rate(Outcome.BENIGN) > 0.6
        assert tally.rate(Outcome.CRASH) > 0.02
        assert "Table III" in table3.render(results)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table4(nyx_small())

    def test_exponent_bias_row(self, result):
        row = result.row("Exponent Bias")
        assert row.mass_symptom.startswith("scaled")
        assert row.location_symptom == "unchanged"
        assert "2^" in row.average_value

    def test_ard_row(self, result):
        """The ARD signature: data moved, nothing about it in mass/avg.
        At the 24^3 test scale a shifted halo can wrap the box, turning
        the uniform shift into a generic location change -- both manifest
        the paper's symptom (locations move, mass and average do not)."""
        row = result.row("ARD")
        assert row.mass_symptom == "unchanged"
        assert row.location_symptom != "unchanged"
        assert row.average_value == "unchanged"

    def test_mantissa_size_row(self, result):
        row = result.row("Mantissa Size")
        assert row.mass_symptom in ("changed", "no halos")

    def test_render_includes_paper(self, result):
        assert "paper symptom" in result.render()


class TestFigures:
    def test_figure5_mechanisms(self):
        result = run_figure5(nyx_small())
        assert result.scale_factor == pytest.approx(256.0, rel=1e-3)
        assert result.shift_cells > 0
        assert len(result.original_trace) == 24

    def test_figure6_candidates_reduced(self):
        result = run_figure6(nyx_small())
        assert result.faulty_candidates != result.golden_candidates

    def test_figure7_cell_nyx_dw(self, tiny_nyx):
        cell = Campaign(tiny_nyx, CampaignConfig(fault_model="DW", n_runs=12,
                                                 seed=4)).run()
        assert cell.tally.total == 12
        # Data-write drops are SDC; metadata/flag drops crash -- nothing
        # else can appear at this scale.
        assert cell.rate(Outcome.SDC) + cell.rate(Outcome.CRASH) == 1.0

    def test_figure9_pays_for_one_fault_free_run(self, monkeypatch):
        """The golden capture doubles as the write profile: no separate
        IOProfiler execution of Montage."""
        from repro.core.profiler import IOProfiler
        from tests.test_study_run import fixture_montage

        def second_fault_free_run(*args, **kwargs):
            raise AssertionError("figure9 profiled Montage in its own run")

        monkeypatch.setattr(IOProfiler, "profile", second_fault_free_run)
        result = run_figure9(fixture_montage())
        assert result.outcome is Outcome.DETECTED
        assert result.dark_pixels > 0

    def test_figure8_histograms_share_bins(self):
        result = run_figure8(nyx_small(), max_tries=16)
        assert np.array_equal(result.golden.bin_edges, result.faulty.bin_edges)
        assert result.golden.n_halos > 0
        assert "Figure 8" in result.render()
