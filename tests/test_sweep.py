"""Tests for fused multi-campaign sweeps (repro.core.engine.sweep).

The two load-bearing contracts:

* **fusion changes cost, not science** -- a fused grid produces
  record-for-record the same outcomes as running every cell as its own
  campaign, while profiling/golden-capturing each distinct app
  configuration exactly once per sweep;
* **the multiplexed checkpoint resumes exactly** -- killing a sweep and
  resuming its one JSONL file re-executes only the missing (cell, run
  index) pairs and reproduces the uninterrupted records.
"""

import filecmp
import io
import json
import os

import pytest

from repro.apps.nyx import FieldConfig, NyxApplication
from repro.cli import main
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine import (
    Executor,
    JsonlSink,
    ProfileGoldenCache,
    SerialExecutor,
    SweepCell,
    SweepPlan,
    execute_sweep,
    load_records_by_campaign,
)
from repro.core.engine.dist import DegradationReport
from repro.core.metadata_campaign import MetadataCampaign
from repro.core.outcomes import Outcome, RunRecord
from repro.errors import FFISError
from repro.fusefs.vfs import FFISFileSystem
from repro.study import Study
from repro.study.registry import figure7_spec


class CountingFsFactory:
    """fs_factory that counts instantiations: every application run --
    fault-free or injected -- mounts exactly one fresh file system, so
    the count *is* the number of application executions."""

    def __init__(self):
        self.count = 0

    def __call__(self) -> FFISFileSystem:
        self.count += 1
        return FFISFileSystem()


@pytest.fixture(scope="module")
def other_nyx() -> NyxApplication:
    """A second, differently-configured tiny Nyx (distinct app config)."""
    return NyxApplication(seed=78, field_config=FieldConfig(
        shape=(16, 16, 16), n_halos=2, halo_amplitude=(800.0, 1500.0),
        halo_radius=(0.6, 0.8)), min_cells=3)


def two_app_grid(tiny_nyx, other_nyx, fs_factory=FFISFileSystem, **knobs):
    """A 6-cell fused figure7 grid over two distinct app configurations."""
    spec = figure7_spec(n_runs=3, seed=4, app_labels=("NYX", "QMC"))
    return Study(spec, apps={"nyx": tiny_nyx, "qmcpack": other_nyx},
                 fs_factory=fs_factory).run(**knobs)


class TestSharedFaultFreeWork:
    def test_each_app_config_profiled_and_captured_exactly_once(
            self, tiny_nyx, other_nyx):
        factory = CountingFsFactory()
        result = two_app_grid(tiny_nyx, other_nyx, fs_factory=factory)
        assert set(result.keys()) == {"NYX-BF", "NYX-SW", "NYX-DW",
                                      "QMC-BF", "QMC-SW", "QMC-DW"}
        # 2 apps x 1 golden capture (each cell's profile is derived from
        # it, not re-executed) + 6 cells x 3 injection runs: were any
        # cell re-captured or separately profiled, the count would rise.
        assert factory.count == 2 * 1 + 6 * 3
        assert result.fault_free_runs == 2

    def test_fused_cells_match_solo_campaigns(self, tiny_nyx, other_nyx):
        fused = two_app_grid(tiny_nyx, other_nyx)
        for app, prefix in ((tiny_nyx, "NYX"), (other_nyx, "QMC")):
            for fm in ("BF", "SW", "DW"):
                solo = Campaign(app, CampaignConfig(
                    fault_model=fm, n_runs=3, seed=4)).run()
                assert fused.cell(f"{prefix}-{fm}") == solo.records

    def test_metadata_cells_share_one_locate(self, tiny_nyx):
        factory = CountingFsFactory()
        cache = ProfileGoldenCache()
        fine = MetadataCampaign(tiny_nyx, fs_factory=factory, seed=5)
        coarse = MetadataCampaign(tiny_nyx, fs_factory=factory, seed=5)
        cells = (fine.plan_cell("stride-256", cache, byte_stride=256),
                 coarse.plan_cell("stride-512", cache, byte_stride=512))
        traced = factory.count
        assert traced == 1          # one golden capture serves both cells
        assert cache.fault_free_runs() == 1
        result = execute_sweep(SweepPlan(cells=cells))
        assert factory.count == traced + result.total
        solo = MetadataCampaign(tiny_nyx, seed=5).run(byte_stride=256)
        assert result.records["stride-256"] == solo.records

    def test_mixed_cells_share_the_golden_capture(self, tiny_nyx):
        """A metadata cell plans from the golden capture: an
        instance-targeted cell planned after it reuses that golden."""
        factory = CountingFsFactory()
        cache = ProfileGoldenCache()
        meta = MetadataCampaign(tiny_nyx, fs_factory=factory, seed=5)
        campaign = Campaign(tiny_nyx, CampaignConfig(fault_model="DW",
                                                     n_runs=2, seed=5),
                            fs_factory=factory)
        cells = (meta.plan_cell("meta", cache, byte_stride=512),
                 campaign.plan_cell("dw", cache))
        assert factory.count == 1   # one golden capture, shared: the
        assert cache.golden_runs == 1   # site and profile derive from it
        result = execute_sweep(SweepPlan(cells=cells))
        assert len(result.records["dw"]) == 2


class TestMultiplexedCheckpoint:
    def test_kill_resume_reproduces_uninterrupted_sweep(
            self, tiny_nyx, other_nyx, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        uninterrupted = two_app_grid(tiny_nyx, other_nyx)

        class Kill(Exception):
            pass

        def explode(done, total):
            if done >= 7:
                raise Kill()

        with pytest.raises(Kill):
            two_app_grid(tiny_nyx, other_nyx, results_path=path,
                         progress=explode)
        killed = load_records_by_campaign(path)
        assert sum(len(v) for v in killed.values()) == 7

        seen = []
        resumed = two_app_grid(tiny_nyx, other_nyx, results_path=path,
                               resume=True,
                               progress=lambda i, n: seen.append((i, n)))
        # Only the 11 missing (cell, run) pairs execute, counted from 8/18.
        assert seen == [(i, 18) for i in range(8, 19)]
        for label in uninterrupted.keys():
            assert resumed.cell(label) == uninterrupted.cell(label)
        # The checkpoint itself now holds the full grid, re-loadable
        # per cell.
        groups = load_records_by_campaign(path)
        assert all(len(records) == 3 for records in groups.values())
        assert len(groups) == 6

    def test_interleaved_dispatch_reaches_every_cell_early(
            self, tiny_nyx, other_nyx, tmp_path):
        """Round-robin dispatch: after only one round's worth of records,
        the checkpoint already holds a prefix of *every* cell."""
        path = str(tmp_path / "sweep.jsonl")

        class Kill(Exception):
            pass

        def explode(done, total):
            if done >= 6:
                raise Kill()

        with pytest.raises(Kill):
            two_app_grid(tiny_nyx, other_nyx, results_path=path,
                         progress=explode)
        groups = load_records_by_campaign(path)
        assert len(groups) == 6     # one record per cell, not 6 of cell one
        assert all(len(records) == 1 for records in groups.values())

    def test_resume_refuses_a_foreign_sweep_checkpoint(
            self, tiny_nyx, other_nyx, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        two_app_grid(tiny_nyx, other_nyx, results_path=path)
        cache = ProfileGoldenCache()
        foreign = Campaign(tiny_nyx, CampaignConfig(fault_model="BF",
                                                    n_runs=3, seed=99))
        other = Campaign(other_nyx, CampaignConfig(fault_model="DW",
                                                   n_runs=3, seed=99))
        plan = SweepPlan(cells=(foreign.plan_cell("a", cache),
                                other.plan_cell("b", cache)))
        with pytest.raises(FFISError, match="refusing to merge"):
            execute_sweep(plan, results_path=path, resume=True)

    def test_unstamped_lines_are_ambiguous_in_a_multicell_sweep(
            self, tiny_nyx, other_nyx, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        sink = JsonlSink(path)          # bare: no campaign stamps
        sink.emit_stamped(RunRecord(0, Outcome.BENIGN), None)
        sink.close()
        cache = ProfileGoldenCache()
        a = Campaign(tiny_nyx, CampaignConfig(fault_model="BF",
                                              n_runs=2, seed=4))
        b = Campaign(other_nyx, CampaignConfig(fault_model="BF",
                                               n_runs=2, seed=4))
        plan = SweepPlan(cells=(a.plan_cell("a", cache),
                                b.plan_cell("b", cache)))
        with pytest.raises(FFISError, match="unstamped"):
            execute_sweep(plan, results_path=path, resume=True)

    def test_unstamped_multicell_checkpoint_refused_upfront(self, tiny_nyx,
                                                            other_nyx,
                                                            tmp_path):
        """A multi-cell sweep with an unstamped cell would write a
        checkpoint resume can never split apart -- refuse before any
        run executes, not after hours of paid-for work."""
        cache = ProfileGoldenCache()
        a = Campaign(tiny_nyx, CampaignConfig(fault_model="BF",
                                              n_runs=2, seed=4))
        b = Campaign(other_nyx, CampaignConfig(fault_model="BF",
                                               n_runs=2, seed=4))
        stamped = a.plan_cell("a", cache)
        bare = SweepCell(key="b", plan=b.plan_cell("b", cache).plan)
        plan = SweepPlan(cells=(stamped, bare))
        path = str(tmp_path / "sweep.jsonl")
        with pytest.raises(FFISError, match="no campaign_id"):
            execute_sweep(plan, results_path=path)
        assert not (tmp_path / "sweep.jsonl").exists()
        # Without a checkpoint the combination is fine.
        result = execute_sweep(plan)
        assert len(result.records["b"]) == 2

    def test_sweep_resume_requires_results_path(self, tiny_nyx):
        cache = ProfileGoldenCache()
        campaign = Campaign(tiny_nyx, CampaignConfig(fault_model="BF",
                                                     n_runs=2, seed=4))
        plan = SweepPlan(cells=(campaign.plan_cell("a", cache),))
        with pytest.raises(FFISError, match="results_path"):
            execute_sweep(plan, resume=True)


class TestSweepPlanValidation:
    def test_duplicate_cell_keys_rejected(self, tiny_nyx):
        cache = ProfileGoldenCache()
        campaign = Campaign(tiny_nyx, CampaignConfig(fault_model="BF",
                                                     n_runs=2, seed=4))
        cell = campaign.plan_cell("a", cache)
        with pytest.raises(FFISError, match="duplicate"):
            SweepPlan(cells=(cell, cell))

    def test_colliding_campaign_identities_rejected(self, tiny_nyx):
        """Two cells whose checkpoint stamps are indistinguishable could
        never be split apart on resume -- refuse upfront."""
        cache = ProfileGoldenCache()
        campaign = Campaign(tiny_nyx, CampaignConfig(fault_model="BF",
                                                     n_runs=2, seed=4))
        cell = campaign.plan_cell("a", cache)
        clone = SweepCell(key="b", plan=cell.plan,
                          campaign_id=cell.campaign_id)
        with pytest.raises(FFISError, match="share a campaign identity"):
            SweepPlan(cells=(cell, clone))

    def test_empty_sweep_rejected(self):
        with pytest.raises(FFISError, match="at least one cell"):
            SweepPlan(cells=())


class TestParallelSweep:
    def test_parallel_fused_sweep_matches_serial(self, tiny_nyx, other_nyx):
        serial = two_app_grid(tiny_nyx, other_nyx)
        parallel = two_app_grid(tiny_nyx, other_nyx, workers=2)
        for label in serial.keys():
            assert parallel.cell(label) == serial.cell(label)


class TestSweepCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_sweep_grid_with_checkpoint(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        code, text = self.run_cli("sweep", "--app", "nyx",
                                  "--model", "BF", "--model", "DW",
                                  "--runs", "2", "--seed", "3",
                                  "--out", path)
        assert code == 0
        assert "nyx-BF" in text and "nyx-DW" in text
        assert "2 cells" in text
        groups = load_records_by_campaign(path)
        assert len(groups) == 2
        assert all(len(records) == 2 for records in groups.values())

    def test_sweep_resume_executes_nothing_when_complete(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        self.run_cli("sweep", "--app", "nyx", "--model", "DW",
                     "--runs", "2", "--seed", "3", "--out", path)
        code, text = self.run_cli("sweep", "--app", "nyx", "--model", "DW",
                                  "--runs", "2", "--seed", "3",
                                  "--out", path, "--resume")
        assert code == 0
        assert "0 executed, 2 resumed" in text

    def test_sweep_resume_requires_out(self):
        with pytest.raises(SystemExit):
            self.run_cli("sweep", "--app", "nyx", "--model", "BF",
                         "--runs", "2", "--resume")

    def test_run_rejects_out_for_sweepless_drivers(self):
        with pytest.raises(SystemExit):
            self.run_cli("run", "table1", "--out", "x.jsonl")

    def test_run_resume_requires_out(self):
        with pytest.raises(SystemExit):
            self.run_cli("run", "figure7", "--resume")


class TestResumedRecordsReachSinks:
    """A resumed sweep's result holds the checkpointed runs as well as
    the re-executed remainder, and the checkpoint grows by appending
    that remainder in the uninterrupted sweep's order."""

    def plan(self):
        from tests.test_scenario_determinism import ToyApp

        app = ToyApp()
        cache = ProfileGoldenCache()
        cells = []
        for key, model in (("BF", "BF"), ("DW", "DW")):
            campaign = Campaign(app, CampaignConfig(
                fault_model=model, n_runs=4, seed=11))
            cells.append(campaign.plan_cell(key, cache))
        return SweepPlan(cells=tuple(cells))

    def test_partial_resume_tallies_old_and_new_runs(self, tmp_path):
        from repro.core.outcomes import OutcomeTally

        path = str(tmp_path / "sweep.jsonl")
        full = execute_sweep(self.plan(), results_path=path)
        expected = OutcomeTally.from_records(
            [r for records in full.records.values() for r in records])
        with open(path, "rb") as f:
            lines = f.readlines()
        with open(path, "wb") as f:
            f.writelines(lines[:3])
        resumed = execute_sweep(self.plan(), results_path=path,
                                resume=True)
        assert resumed.executed == len(lines) - 3
        assert OutcomeTally.from_records(
            [r for records in resumed.records.values() for r in records]
        ) == expected
        assert resumed.records == full.records
        # The remainder is appended in the uninterrupted sweep's order.
        with open(path, "rb") as f:
            assert f.readlines() == lines


class _Dropping(Executor):
    """Serial execution that never yields the item *drop* and, when
    *named*, reports it as a hole."""

    def __init__(self, drop, named):
        self.drop, self.named = drop, named

    def map_tagged(self, plan, items):
        if self.named:
            self.report = DegradationReport(holes=("{}:{}".format(*self.drop),))
        yield from SerialExecutor().map_tagged(
            plan, [(key, spec) for key, spec in items
                   if (key, spec.run_index) != self.drop])


class TestExecutorSeam:
    """What ``execute_sweep`` demands of any backend: every item, or a
    named hole for each one it drops."""

    def serial(self, tmp_path):
        from tests.test_dist import toy_plan

        path = str(tmp_path / "serial.jsonl")
        execute_sweep(toy_plan(), results_path=path)
        with open(path, "rb") as f:
            return toy_plan(), path, f.read().splitlines(keepends=True)

    def test_an_unnamed_missing_run_raises(self, tmp_path):
        plan, _, _ = self.serial(tmp_path)
        with pytest.raises(FFISError, match="named none of them as holes"):
            execute_sweep(plan, executor=_Dropping(("DW", 1), named=False),
                          results_path=str(tmp_path / "out.jsonl"))

    def test_a_named_hole_is_reported_and_receipted(self, tmp_path):
        plan, _, lines = self.serial(tmp_path)
        path = str(tmp_path / "out.jsonl")
        executor = _Dropping(("DW", 1), named=True)
        result = execute_sweep(plan, executor=executor, results_path=path)
        assert result.degradation is executor.report
        assert [r.run_index for r in result.records["DW"]] == [0, 2, 3, 4, 5]
        with open(path, "rb") as f:
            # The rest in plan order: the serial lines, DW:1's (the
            # fourth) left out.
            assert f.read() == b"".join(lines[:3] + lines[4:])
        with open(path + ".holes.json", encoding="utf-8") as f:
            receipt = json.load(f)
        assert receipt["complete"] is False
        assert receipt["missing_runs"] == ["DW:1"]

    def test_a_whole_resume_rewrites_in_plan_order_and_drops_the_receipt(
            self, tmp_path):
        """A checkpoint with a gap (a partial campaign's hole) and its
        receipt: the resume that fills the gap leaves the serial bytes
        and no receipt."""
        plan, serial_path, lines = self.serial(tmp_path)
        path = str(tmp_path / "out.jsonl")
        with open(path, "wb") as f:
            f.write(b"".join(lines[:3] + lines[4:]))
        receipt = path + ".holes.json"
        with open(receipt, "w", encoding="utf-8") as f:
            json.dump({"complete": False, "missing_runs": ["DW:1"]}, f)
        result = execute_sweep(plan, results_path=path, resume=True)
        assert result.executed == 1
        assert filecmp.cmp(serial_path, path, shallow=False)
        assert not os.path.exists(receipt)
