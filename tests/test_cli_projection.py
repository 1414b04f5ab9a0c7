"""Tests for the CLI and the system-level rate projection."""

import io

import pytest

from repro.analysis.projection import (
    FIELD_STUDY_UBER_RANGE,
    JEDEC_ENTERPRISE_UBER,
    DeviceModel,
    project_run,
    system_sdc_rate,
)
from repro.cli import main
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.outcomes import Outcome


@pytest.fixture(scope="module")
def dw_result(tiny_nyx_module):
    config = CampaignConfig(fault_model="DW", n_runs=12, seed=2)
    return Campaign(tiny_nyx_module, config).run()


@pytest.fixture(scope="module")
def tiny_nyx_module():
    from repro.apps.nyx import FieldConfig, NyxApplication
    config = FieldConfig(shape=(16, 16, 16), n_halos=2,
                         halo_amplitude=(800.0, 1500.0),
                         halo_radius=(0.6, 0.8))
    return NyxApplication(seed=77, field_config=config, min_cells=3)


class TestDeviceModel:
    def test_fault_probability_scales_with_bytes(self):
        device = DeviceModel(uber=1e-9)
        small = device.fault_probability(1_000)
        large = device.fault_probability(1_000_000)
        assert 0 < small < large < 1

    def test_tiny_uber_linearizes(self):
        device = DeviceModel(uber=1e-15)
        p = device.fault_probability(10_000)
        assert p == pytest.approx(8e4 * 1e-15, rel=1e-6)

    def test_zero_bytes(self):
        assert DeviceModel(uber=1e-9).fault_probability(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceModel(uber=1.5)
        with pytest.raises(ValueError):
            DeviceModel(uber=1e-9).fault_probability(-1)

    def test_paper_constants(self):
        lo, hi = FIELD_STUDY_UBER_RANGE
        assert lo < hi
        assert JEDEC_ENTERPRISE_UBER < lo


class TestProjection:
    def test_project_run_composes_probabilities(self, dw_result):
        device = DeviceModel(uber=1e-9)
        projection = project_run(dw_result, device)
        p_sdc = projection.probability(Outcome.SDC)
        assert p_sdc == pytest.approx(
            projection.fault_probability * dw_result.rate(Outcome.SDC))
        assert 0 < p_sdc < projection.fault_probability + 1e-12

    def test_runs_per_sdc(self, dw_result):
        projection = project_run(dw_result, DeviceModel(uber=1e-9))
        assert projection.runs_per_sdc() == pytest.approx(
            1.0 / projection.probability(Outcome.SDC))

    def test_system_rate_scales_with_nodes(self, dw_result):
        projection = project_run(dw_result, DeviceModel(uber=1e-9))
        one = system_sdc_rate(projection, runs_per_day=24, nodes=1)
        many = system_sdc_rate(projection, runs_per_day=24, nodes=1000)
        assert many == pytest.approx(1000 * one)

    def test_validation(self, dw_result):
        projection = project_run(dw_result, DeviceModel(uber=1e-9))
        with pytest.raises(ValueError):
            system_sdc_rate(projection, runs_per_day=-1)


class TestCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_experiments_lists_all(self):
        code, text = self.run_cli("experiments")
        assert code == 0
        for exp_id in ("table1", "table3", "figure7", "figure9"):
            assert exp_id in text

    def test_run_table1(self):
        code, text = self.run_cli("run", "table1")
        assert code == 0
        assert "Bitflip" in text

    def test_campaign_command(self):
        code, text = self.run_cli("campaign", "--app", "nyx", "--model", "DW",
                                  "--runs", "5", "--seed", "9")
        assert code == 0
        assert "nyx/DW" in text and "sdc" in text

    def test_project_command(self):
        code, text = self.run_cli("project", "--app", "nyx", "--model", "DW",
                                  "--runs", "5", "--uber", "1e-9",
                                  "--nodes", "100", "--runs-per-day", "10")
        assert code == 0
        assert "P(SDC per run)" in text
        assert "expected SDCs per day" in text

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            self.run_cli("run", "table99")
