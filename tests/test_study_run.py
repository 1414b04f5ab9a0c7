"""The Study compile/execute path against the pre-redesign drivers.

Two load-bearing contracts of the API redesign:

* **byte-identical checkpoints** -- ``figure7``, ``multifault``, and
  ``table3`` executed through their registered ``StudySpec``\\ s write
  JSONL checkpoints byte-identical to the pre-redesign drivers.  The
  committed fixtures under ``tests/data/study_*.jsonl`` were generated
  by the pre-study drivers and whole-file compared here on every run.
  ``study_table4.jsonl`` pins the targeted metadata route the same way;
  it was generated through the registered spec before that route moved
  from the study compiler into ``MetadataCampaign.plan_cell``.
* **specs are the study** -- a spec survives spec -> TOML -> spec ->
  ``plan()`` with a record-identical run, so a study shipped as a TOML
  file reproduces exactly.
"""

import filecmp
import os

import pytest

from repro.apps.montage import MontageApplication, SkyConfig
from repro.apps.nyx import FieldConfig, NyxApplication
from repro.errors import ConfigError
from repro.study import Study, StudySpec
from repro.study.registry import (
    figure7_spec,
    get_study,
    multifault_spec,
)
from repro.study.spec import ModelSpec, ScenarioSpec, TargetSpec

from tests.test_scenario_determinism import DATA_DIR, ToyApp

FIGURE7_FIXTURE = os.path.join(DATA_DIR, "study_figure7.jsonl")
MULTIFAULT_FIXTURE = os.path.join(DATA_DIR, "study_multifault.jsonl")
TABLE3_FIXTURE = os.path.join(DATA_DIR, "study_table3.jsonl")
TABLE4_FIXTURE = os.path.join(DATA_DIR, "study_table4.jsonl")


def fixture_nyx() -> NyxApplication:
    return NyxApplication(seed=77, field_config=FieldConfig(
        shape=(16, 16, 16), n_halos=2, halo_amplitude=(800.0, 1500.0),
        halo_radius=(0.6, 0.8)), min_cells=3)


def fixture_montage() -> MontageApplication:
    return MontageApplication(seed=11, sky_config=SkyConfig(
        canvas_shape=(64, 64), tile_shape=(32, 32), n_tiles=6, n_stars=40))


def toy_apps():
    return {"TOY": ToyApp(), "ALT": ToyApp(payload_seed=9)}


class TestGoldenFixtures:
    """The acceptance criterion: registered specs == old drivers, byte
    for byte, on the multiplexed JSONL checkpoints."""

    def test_figure7_study_checkpoint_matches_pre_redesign_fixture(
            self, tmp_path):
        spec = figure7_spec(n_runs=2, seed=4, app_labels=("NYX", "MT"))
        path = str(tmp_path / "figure7.jsonl")
        results = Study(spec, apps={"nyx": fixture_nyx(),
                                    "montage": fixture_montage()}) \
            .run(results_path=path)
        assert filecmp.cmp(FIGURE7_FIXTURE, path, shallow=False)
        # 15 cells (NYX + MT1..4 across BF/SW/DW), one fault-free
        # golden capture per app (profiles are derived from it).
        assert len(results.keys()) == 15
        assert results.fault_free_runs == 2

    def test_multifault_study_checkpoint_matches_fixture(self, tmp_path):
        spec = multifault_spec(n_runs=3, seed=6, fault_model="DW",
                               k_values=(1, 2, 4),
                               apps=(("TOY", "TOY"), ("ALT", "ALT")))
        path = str(tmp_path / "multifault.jsonl")
        Study(spec, apps=toy_apps()).run(results_path=path)
        assert filecmp.cmp(MULTIFAULT_FIXTURE, path, shallow=False)

    def test_table3_registered_study_matches_fixture(self, tmp_path):
        definition = get_study("table3")
        spec = definition.build(byte_stride=128, seed=0)
        path = str(tmp_path / "table3.jsonl")
        results = Study(spec).run(results_path=path)
        assert filecmp.cmp(TABLE3_FIXTURE, path, shallow=False)
        assert "Table III" in definition.render(results)

    def test_table4_registered_study_matches_fixture(self, tmp_path):
        # The targeted metadata route: six named (field, byte, bit)
        # corruptions of the penultimate write, on the 24^3 Nyx so the
        # checkpoint is as host-stable as the Table III one.
        from repro.experiments.params import nyx_small

        definition = get_study("table4")
        path = str(tmp_path / "table4.jsonl")
        results = Study(definition.build(), apps={"nyx": nyx_small()}) \
            .run(results_path=path)
        assert filecmp.cmp(TABLE4_FIXTURE, path, shallow=False)
        assert "Table IV" in definition.render(results)


class TestSpecTomlPlanRoundTrip:
    """spec -> TOML -> spec -> plan() runs record-identically."""

    def spec(self):
        return StudySpec(
            name="toml-round-trip",
            targets=(TargetSpec(app="TOY", label="TOY"),
                     TargetSpec(app="ALT", label="ALT")),
            models=(ModelSpec(model="DW"), ModelSpec(model="BF")),
            scenarios=(ScenarioSpec(), ScenarioSpec(scenario="k=2")),
            runs=3, seed=6)

    def test_record_identical_run(self, tmp_path):
        spec = self.spec()
        reloaded = StudySpec.from_toml(spec.to_toml())
        assert reloaded == spec
        first = Study(spec, apps=toy_apps()).run()
        second = Study(reloaded, apps=toy_apps()).run()
        assert first.keys() == second.keys()
        for key in first.keys():
            assert first.cell(key) == second.cell(key)

    def test_checkpoint_identical_through_file(self, tmp_path):
        spec = self.spec()
        path = tmp_path / "spec.toml"
        path.write_text(spec.to_toml(), encoding="utf-8")
        from repro.study.spec import load_spec

        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        Study(spec, apps=toy_apps()).run(results_path=a)
        Study(load_spec(str(path)), apps=toy_apps()).run(results_path=b)
        assert filecmp.cmp(a, b, shallow=False)


class TestStudyExecution:
    def test_shared_fault_free_work_across_cells(self):
        spec = StudySpec(
            name="shared",
            targets=(TargetSpec(app="TOY", label="A"),),
            models=(ModelSpec(model="DW"), ModelSpec(model="BF")),
            runs=2, seed=1)
        counting = {"n": 0}

        class CountingToy(ToyApp):
            def execute(self, mp):
                counting["n"] += 1
                return super().execute(mp)

        results = Study(spec, apps={"TOY": CountingToy()}).run()
        # One app instance: a single golden capture (profile derived
        # from it), plus 2 cells x 2 runs.
        assert results.fault_free_runs == 1
        assert counting["n"] == 1 + 4
        assert set(results.keys()) == {"A-DW", "A-BF"}

    def test_kill_resume_round_trip(self, tmp_path):
        spec = multifault_spec(n_runs=3, seed=6, fault_model="DW",
                               k_values=(1, 2), apps=(("TOY", "TOY"),))
        path = str(tmp_path / "study.jsonl")

        class Kill(Exception):
            pass

        def explode(done, total):
            if done >= 3:
                raise Kill()

        uninterrupted = Study(spec, apps={"TOY": ToyApp()}).run()
        with pytest.raises(Kill):
            Study(spec, apps={"TOY": ToyApp()}).run(results_path=path,
                                                    progress=explode)
        resumed = Study(spec, apps={"TOY": ToyApp()}).run(results_path=path,
                                                          resume=True)
        assert resumed.executed < len(resumed)
        for key in uninterrupted.keys():
            assert resumed.cell(key) == uninterrupted.cell(key)

    def test_spec_engine_knobs_drive_execution(self, tmp_path):
        path = str(tmp_path / "knobs.jsonl")
        spec = StudySpec(name="knobs",
                         targets=(TargetSpec(app="TOY"),),
                         models=(ModelSpec(model="DW"),),
                         runs=2, seed=3, out=path)
        results = Study(spec, apps={"TOY": ToyApp()}).run()
        assert os.path.exists(path)
        assert results.executed == 2

    def test_unknown_app_id_is_config_error(self):
        spec = StudySpec(name="x", targets=(TargetSpec(app="no-such-app"),),
                         runs=1)
        with pytest.raises(ConfigError, match="unknown application id"):
            Study(spec).plan()

    def test_figure7_unknown_apps_label_is_config_error(self):
        with pytest.raises(ConfigError,
                           match=r"unknown figure7 app labels \['CUSTOM'\]"):
            figure7_spec(n_runs=1, app_labels=("NYX", "CUSTOM"))

    def test_describe_lists_cells(self):
        spec = multifault_spec(n_runs=2, seed=6, fault_model="DW",
                               k_values=(1, 2), apps=(("TOY", "TOY"),))
        plan = Study(spec, apps={"TOY": ToyApp()}).plan()
        text = plan.describe()
        assert "TOY-k1" in text and "TOY-k2" in text
        assert "4 runs" in text  # 2 cells x 2 runs

    def test_targeted_metadata_cell_reports_its_mode(self):
        from repro.experiments.params import nyx_small
        from repro.study.registry import table4_spec

        plan = Study(table4_spec(), apps={"nyx": nyx_small()}).plan()
        info = plan.cell_info()["nyx"]
        assert info.signature == "metadata[targeted]"
        assert "metadata[targeted]" in info.campaign_id

    def test_campaign_results_adapter(self):
        spec = StudySpec(name="adapter",
                         targets=(TargetSpec(app="TOY"),),
                         models=(ModelSpec(model="DW"),),
                         runs=2, seed=3)
        plan = Study(spec, apps={"TOY": ToyApp()}).plan()
        results = plan.execute()
        (result,) = plan.campaign_results(results).values()
        assert result.profile is not None and result.golden is not None
        assert len(result.records) == 2
        assert result.summary().startswith("toy/DW")
