"""The ``repro study`` subcommand and the lazy experiment registry."""

import filecmp
import inspect
import io
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core.engine import load_records_by_campaign
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.study import StudySpec


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestLazyRegistry:
    def test_registry_import_does_not_import_drivers(self):
        """The satellite contract: listing experiments (or `repro
        --version`) must not pay for a driver module, the study
        registry, or numpy."""
        code = (
            "import sys\n"
            "import repro.cli\n"
            "from repro.experiments.registry import EXPERIMENTS\n"
            "assert len(EXPERIMENTS) == 10\n"
            "heavy = [m for m in sys.modules if m in ("
            "'numpy', 'repro.study.registry') or ("
            "m.startswith('repro.experiments.') "
            "and m != 'repro.experiments.registry')]\n"
            "assert not heavy, heavy\n")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": "src"}, cwd=".")

    def test_driver_resolves_lazily(self):
        from repro.experiments.table1 import run_table1

        assert EXPERIMENTS["table1"].resolve() is run_table1

    def test_every_registered_driver_resolves(self):
        from repro.study import STUDIES

        for exp in EXPERIMENTS.values():
            if exp.study:
                assert exp.study in STUDIES, exp.id
            else:
                assert callable(exp.resolve()), exp.id

    def test_knob_declarations(self):
        """--out/--resume apply to exactly the experiments that run a
        registered study; no bespoke driver takes an engine knob."""
        assert {exp.id for exp in EXPERIMENTS.values() if exp.study} == {
            "figure7", "multifault", "table3"}
        for exp in EXPERIMENTS.values():
            if not exp.study:
                params = inspect.signature(exp.resolve()).parameters
                assert not {"workers", "results_path", "resume"} & set(params)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("table99")


class TestStudyCli:
    def test_list_names_registered_studies(self):
        code, text = run_cli("study", "list")
        assert code == 0
        for study_id in ("figure7", "multifault", "table3", "table4"):
            assert study_id in text

    def test_describe_registered_study_round_trips(self):
        code, text = run_cli("study", "describe", "multifault")
        assert code == 0
        spec = StudySpec.from_toml(text)
        assert spec.name == "multifault"
        assert [t.label for t in spec.targets] == ["NYX", "QMC", "MT"]

    def test_plan_lists_cells_without_executing(self):
        code, text = run_cli("study", "plan", "figure7")
        assert code == 0
        assert "NYX-BF" in text and "MT4-DW" in text
        assert "REPRO_FI_RUNS" in text  # runs deferred to the env knob

    def test_plan_inline_axes(self):
        code, text = run_cli("study", "plan", "--app", "nyx",
                             "--model", "BF", "--model", "DW",
                             "--scenario", "k=2", "--runs", "5")
        assert code == 0
        assert "nyx-BF-k=2" in text and "nyx-DW-k=2" in text

    def test_run_from_toml_file(self, tmp_path):
        spec_path = tmp_path / "study.toml"
        spec_path.write_text(
            'name = "file-study"\n'
            "runs = 2\n"
            "seed = 3\n"
            "\n"
            "[[targets]]\n"
            'app = "nyx-small"\n'
            'kind = "metadata"\n'
            "stride = 256\n",
            encoding="utf-8")
        out_path = str(tmp_path / "results.jsonl")
        code, text = run_cli("study", "run", "--file", str(spec_path),
                             "--out", out_path)
        assert code == 0
        assert "study:" in text and "1 cells" in text
        assert len(load_records_by_campaign(out_path)) == 1

    @pytest.fixture
    def tiny_app_registry(self, monkeypatch):
        """Rebind the stock app ids to tiny workloads so registered
        studies run at test scale through the real CLI path."""
        import repro.study.apps as study_apps
        from repro.apps.nyx import FieldConfig, NyxApplication
        from tests.test_study_run import fixture_montage, fixture_nyx

        def other_nyx():
            return NyxApplication(seed=78, field_config=FieldConfig(
                shape=(16, 16, 16), n_halos=2,
                halo_amplitude=(800.0, 1500.0),
                halo_radius=(0.6, 0.8)), min_cells=3)

        monkeypatch.setitem(study_apps._FACTORIES, "nyx", fixture_nyx)
        monkeypatch.setitem(study_apps._FACTORIES, "qmcpack", other_nyx)
        monkeypatch.setitem(study_apps._FACTORIES, "montage", fixture_montage)
        monkeypatch.setenv("REPRO_FI_RUNS", "2")

    def test_run_grid_experiment_is_the_registered_study(
            self, tiny_app_registry, tmp_path):
        """`repro run figure7` executes the registered study: the same
        checkpoint bytes and report as `repro study run figure7`, under
        its own header and without the study footer."""
        run_out = str(tmp_path / "run.jsonl")
        study_out = str(tmp_path / "study.jsonl")
        code, text = run_cli("run", "figure7", "--out", run_out)
        assert code == 0
        _, study_text = run_cli("study", "run", "figure7", "--out", study_out)
        assert filecmp.cmp(run_out, study_out, shallow=False)
        header, report = text.split("\n", 1)
        assert header == ("running figure7: Characterization grid "
                          "(apps x fault models)")
        assert "Figure 7: I/O fault characterization" in report
        assert "study:" not in text
        assert study_text.startswith(report)
        assert study_text[len(report):].startswith("study: 18 cells")
        # --resume on the complete checkpoint leaves it byte-identical.
        code, _ = run_cli("run", "figure7", "--out", run_out, "--resume")
        assert code == 0
        assert filecmp.cmp(run_out, study_out, shallow=False)

    def test_run_registered_study_renders_report(self, tiny_app_registry):
        code, text = run_cli("study", "run", "figure7")
        assert code == 0
        assert "Figure 7: I/O fault characterization" in text
        assert "NYX-BF" in text and "MT4-DW" in text
        assert "study:" in text

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            run_cli("study", "run")
        with pytest.raises(SystemExit):
            run_cli("study", "run", "figure7", "--file", "x.toml")

    def test_unknown_study_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("study", "run", "figure99")

    def test_axis_flags_rejected_for_named_or_file_studies(self, tmp_path):
        """--model/--scenario/--phase shape inline specs only; silently
        ignoring them against a registered study would misreport the
        grid actually run."""
        with pytest.raises(SystemExit):
            run_cli("study", "run", "figure7", "--model", "BF")
        with pytest.raises(SystemExit):
            run_cli("study", "plan", "multifault", "--scenario", "k=2")
        spec_path = tmp_path / "s.toml"
        spec_path.write_text('name = "x"\n\n[[targets]]\napp = "nyx"\n',
                             encoding="utf-8")
        with pytest.raises(SystemExit):
            run_cli("study", "plan", "--file", str(spec_path),
                    "--phase", "mAdd")

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("study", "plan", "--app", "nyx", "--model", "BF",
                    "--scenario", "nonsense=4")

    def test_resume_requires_out(self):
        with pytest.raises(SystemExit):
            run_cli("study", "run", "figure7", "--resume")

    def test_runs_rejected_for_metadata_only_studies(self):
        """A metadata sweep's size is bytes/stride; --runs would be
        silently ignored, so it is refused instead."""
        with pytest.raises(SystemExit):
            run_cli("study", "plan", "table3", "--runs", "5")
        with pytest.raises(SystemExit):
            run_cli("study", "run", "table4", "--runs", "5")

    def test_fleet_flags_rejected_where_they_do_not_apply(self, tmp_path,
                                                          capsys):
        """--queue and --quarantine-after need --hosts > 1 and --workers
        does not apply with it: each is a usage error naming the flag,
        not a silently ignored knob."""
        queue = str(tmp_path / "queue")
        for flags, named in (
                (("--queue", queue), "--queue"),
                (("--quarantine-after", "2"), "--quarantine-after"),
                (("--hosts", "1", "--queue", queue), "--queue"),
                (("--hosts", "2", "--workers", "4", "--queue", queue),
                 "--workers")):
            with pytest.raises(SystemExit):
                run_cli("study", "run", "--app", "nyx-small", "--model", "BF",
                        "--runs", "2", *flags)
            assert named in capsys.readouterr().err
        assert not os.path.exists(queue)

    def test_run_with_out_resume_round_trip(self, tmp_path):
        spec_path = tmp_path / "study.toml"
        spec_path.write_text(
            'name = "resume-study"\n\n'
            "[[targets]]\n"
            'app = "nyx-small"\n'
            'kind = "metadata"\n'
            "stride = 256\n",
            encoding="utf-8")
        out_path = str(tmp_path / "meta.jsonl")
        code, _ = run_cli("study", "run", "--file", str(spec_path),
                          "--out", out_path)
        assert code == 0
        code, text = run_cli("study", "run", "--file", str(spec_path),
                             "--out", out_path, "--resume")
        assert code == 0
        assert "(0 executed" in text


class TestRebasedSubcommands:
    """campaign/sweep/run share the Study path and its knob contract."""

    def test_campaign_scenario_still_works(self):
        code, text = run_cli("campaign", "--app", "nyx", "--model", "DW",
                             "--runs", "3", "--seed", "2",
                             "--scenario", "k=2")
        assert code == 0
        assert "nyx/DW" in text and "<k=2>" in text

    def test_campaign_metadata_mode(self, tmp_path):
        out_path = str(tmp_path / "meta.jsonl")
        code, text = run_cli("campaign", "--app", "nyx-small",
                             "--metadata-mode", "random-bit",
                             "--stride", "256", "--out", out_path)
        assert code == 0
        assert "metadata[random-bit]" in text
        assert len(load_records_by_campaign(out_path)) == 1

    def test_run_out_rejected_for_knobless_driver(self):
        with pytest.raises(SystemExit):
            run_cli("run", "table4", "--out", "x.jsonl")


class TestCampaignStdout:
    """`repro campaign` prints the Python API's summary line and its
    Wilson error bars, byte for byte, for both campaign forms."""

    @staticmethod
    def expected(result):
        from repro.analysis.stats import campaign_error_bars

        tally = result.tally
        bars = [f"  {outcome.value:<9} {estimate}"
                for outcome, estimate in campaign_error_bars(tally).items()
                if tally.counts[outcome]]
        assert len(bars) > 1  # more than one outcome, so order is pinned
        return "\n".join([result.summary()] + bars) + "\n"

    def test_fault_campaign_with_phase_and_scenario(self):
        from repro.core.campaign import Campaign
        from repro.core.config import CampaignConfig
        from repro.study.apps import resolve_app_factory

        code, text = run_cli("campaign", "--app", "nyx", "--model", "DW",
                             "--runs", "8", "--seed", "4",
                             "--phase", "checkpoint", "--scenario", "k=2")
        assert code == 0
        config = CampaignConfig(fault_model="DW", n_runs=8, seed=4,
                                phase="checkpoint", scenario="k=2")
        result = Campaign(resolve_app_factory("nyx")(), config).run()
        assert text == self.expected(result)

    def test_metadata_campaign_with_stride(self):
        from repro.core.metadata_campaign import MetadataCampaign
        from repro.study.apps import resolve_app_factory

        code, text = run_cli("campaign", "--app", "nyx-small",
                             "--metadata-mode", "random-bit",
                             "--stride", "256", "--seed", "3")
        assert code == 0
        campaign = MetadataCampaign(resolve_app_factory("nyx-small")(),
                                    seed=3, mode="random-bit")
        result = campaign.run(byte_stride=256)
        assert text == self.expected(result)
