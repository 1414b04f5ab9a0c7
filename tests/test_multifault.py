"""Tests for the multifault study (outcome rates vs fault count k).

The study is a fused sweep like figure7: per-app fault-free work runs
once across all k cells, the k=1 cell is the legacy single-fault
baseline (bit-identical to a solo campaign), and the whole grid
checkpoints to one multiplexed JSONL file with kill/resume.
"""

import pytest

from repro.analysis.stats import per_k_tallies, sdc_vs_k
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine import load_records_by_campaign
from repro.core.outcomes import Outcome, RunRecord
from repro.experiments.registry import EXPERIMENTS
from repro.fusefs.vfs import FFISFileSystem
from repro.study import Study
from repro.study.registry import get_study, multifault_spec

from tests.test_scenario_determinism import ToyApp

K_VALUES = (1, 2, 4)


class CountingFsFactory:
    def __init__(self):
        self.count = 0

    def __call__(self) -> FFISFileSystem:
        self.count += 1
        return FFISFileSystem()


def tiny_grid(fs_factory=FFISFileSystem, **knobs):
    spec = multifault_spec(n_runs=3, seed=6, fault_model="DW",
                           k_values=K_VALUES,
                           apps=(("TOY", "TOY"), ("ALT", "ALT")))
    return Study(spec, apps={"TOY": ToyApp(), "ALT": ToyApp(payload_seed=9)},
                 fs_factory=fs_factory).run(**knobs)


class TestMultifaultDriver:
    def test_grid_shape_and_shared_fault_free_work(self):
        factory = CountingFsFactory()
        result = tiny_grid(fs_factory=factory)
        assert set(result.keys()) == {f"{app}-k{k}" for app in ("TOY", "ALT")
                                      for k in K_VALUES}
        # 2 apps x 1 golden capture (the profile is derived from it,
        # not re-executed) + 6 cells x 3 runs.
        assert factory.count == 2 * 1 + 6 * 3
        assert result.fault_free_runs == 2

    def test_k1_cell_is_the_legacy_single_fault_baseline(self):
        result = tiny_grid()
        solo = Campaign(ToyApp(), CampaignConfig(
            fault_model="DW", n_runs=3, seed=6)).run()
        assert result.cell("TOY-k1") == solo.records

    def test_higher_k_cells_are_scenario_stamped(self):
        result = tiny_grid()
        for record in result.cell("TOY-k4"):
            assert record.scenario == "k=4"
            assert 1 <= len(record.instances) <= 4
        assert result.info["TOY-k4"].scenario == "k=4"
        assert result.info["TOY-k1"].scenario is None

    def test_kill_resume_round_trip(self, tmp_path):
        """The acceptance-criterion path: kill the fused sweep mid-grid,
        resume from its multiplexed checkpoint, and reproduce the
        uninterrupted records exactly."""
        path = str(tmp_path / "multifault.jsonl")
        uninterrupted = tiny_grid()

        class Kill(Exception):
            pass

        def explode(done, total):
            if done >= 8:
                raise Kill()

        with pytest.raises(Kill):
            tiny_grid(results_path=path, progress=explode)
        assert sum(len(v) for v in
                   load_records_by_campaign(path).values()) == 8

        resumed = tiny_grid(results_path=path, resume=True)
        for label in uninterrupted.keys():
            assert resumed.cell(label) == uninterrupted.cell(label)
        groups = load_records_by_campaign(path)
        assert len(groups) == 6
        assert all(len(records) == 3 for records in groups.values())

    def test_render_includes_curves(self):
        text = get_study("multifault").render(tiny_grid())
        assert "SDC rate vs fault count" in text
        assert "SDC @ k=4" in text
        assert "TOY-k2" in text

    def test_plan_cells_in_label_order(self):
        study_plan = Study(
            multifault_spec(n_runs=2, seed=6, k_values=K_VALUES,
                            apps=(("TOY", "TOY"),)),
            apps={"TOY": ToyApp()}).plan()
        plan = study_plan.sweep
        campaigns = {cell.key: cell.planner for cell in study_plan.cells}
        assert [cell.key for cell in plan.cells] == list(campaigns)
        assert list(campaigns) == ["TOY-k1", "TOY-k2", "TOY-k4"]

    def test_registered_experiment(self):
        """`repro run multifault` runs the registered multifault study."""
        exp = EXPERIMENTS["multifault"]
        assert exp.study == "multifault"
        assert get_study(exp.study).build is multifault_spec


class TestPerKStats:
    def records(self):
        out = []
        for i in range(8):
            out.append(RunRecord(i, Outcome.BENIGN))            # k=1 legacy
        for i in range(8):
            out.append(RunRecord(i, Outcome.SDC if i < 4 else Outcome.BENIGN,
                                 instances=(i, i + 1), scenario="k=2"))
        out.append(RunRecord(0, Outcome.SDC, instances=(3, 4, 5),
                             scenario="burst=3"))
        return out

    def test_per_k_tallies_group_by_nominal_fault_count(self):
        tallies = per_k_tallies(self.records())
        assert sorted(tallies) == [1, 2, 3]
        assert tallies[1].total == 8
        assert tallies[2].counts[Outcome.SDC] == 4
        assert tallies[3].total == 1

    def test_collapsed_draws_keep_their_nominal_k(self):
        """A k=3 plan whose draws collided down to 2 distinct points is
        still a k=3 measurement."""
        record = RunRecord(0, Outcome.SDC, instances=(5, 9), scenario="k=3")
        assert sorted(per_k_tallies([record])) == [3]

    def test_sdc_vs_k_curve(self):
        curve = sdc_vs_k(self.records())
        assert list(curve) == [1, 2, 3]
        assert curve[1].rate == 0.0
        assert curve[2].rate == pytest.approx(0.5)
        assert curve[3].rate == 1.0
        # Pre-grouped tallies are accepted too.
        again = sdc_vs_k(per_k_tallies(self.records()))
        assert {k: e.rate for k, e in again.items()} == \
            {k: e.rate for k, e in curve.items()}
