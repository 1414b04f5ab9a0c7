"""Tests for composable fault scenarios (repro.core.scenario).

Covers the scenario vocabulary itself (parse/stamp round-trips, point
planning, validation), the multi-shot injector hook, the at-rest decay
hook (including the phase-boundary seam), and scenario-aware campaigns
end to end -- with the single-fault scenario pinned to the classic
engine's behavior.
"""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine import RunSpec
from repro.core.fault_models import BitFlipFault
from repro.core.injector import MultiShotHook
from repro.core.scenario import (
    AtRestDecay,
    AtRestDecayHook,
    BurstFault,
    KFaults,
    SingleFault,
    as_scenario,
    parse_scenario,
)
from repro.core.signature import FaultSignature
from repro.errors import ConfigError, FFISError
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem


class TestParseAndStamp:
    @pytest.mark.parametrize("spec, expected", [
        ("single", SingleFault()),
        ("k=3", KFaults(k=3)),
        ("k=3,window=16", KFaults(k=3, correlated_window=16)),
        ("burst=4", BurstFault(length=4)),
        ("decay", AtRestDecay()),
        ("decay:bytes=4", AtRestDecay(n_bytes=4)),
        ("decay:bytes=4,region=0-2048", AtRestDecay(n_bytes=4, region=(0, 2048))),
        ("decay:bytes=2,after=mAdd", AtRestDecay(n_bytes=2, after_phase="mAdd")),
    ])
    def test_parse(self, spec, expected):
        assert parse_scenario(spec) == expected

    @pytest.mark.parametrize("scenario", [
        SingleFault(), KFaults(k=2), KFaults(k=5, correlated_window=9),
        BurstFault(length=3), AtRestDecay(),
        AtRestDecay(n_bytes=3, region=(16, 64), after_phase="stage1"),
    ])
    def test_stamp_round_trips(self, scenario):
        assert parse_scenario(scenario.stamp()) == scenario

    @pytest.mark.parametrize("bad", [
        "", "k=", "k=x", "k=3,span=4", "burst=", "mystery",
        "decay:bytes=0x4", "decay:region=5", "decay:lifetime=3",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_scenario(bad)

    @pytest.mark.parametrize("make", [
        lambda: KFaults(k=0), lambda: KFaults(k=2, correlated_window=0),
        lambda: BurstFault(length=0), lambda: AtRestDecay(n_bytes=0),
        lambda: AtRestDecay(region=(8, 8)), lambda: AtRestDecay(region=(-1, 4)),
    ])
    def test_invalid_parameters_rejected(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_as_scenario_coercions(self):
        assert as_scenario(None) == SingleFault()
        assert as_scenario("burst=2") == BurstFault(length=2)
        scenario = KFaults(k=3)
        assert as_scenario(scenario) is scenario
        with pytest.raises(ConfigError):
            as_scenario(42)


class TestPointPlanning:
    def window(self):
        return range(10, 50)

    def picker(self, seed=0):
        return np.random.default_rng(seed)

    def test_single_matches_classic_draw(self):
        # One draw from the shared picker, exactly like the classic plan.
        a = SingleFault().pick(self.picker(), self.window())
        b = (int(self.picker().integers(10, 50)),)
        assert a == b

    def test_kfaults_points_inside_window(self):
        points = KFaults(k=6).pick(self.picker(), self.window())
        assert 1 <= len(points) <= 6
        assert points == tuple(sorted(set(points)))
        assert all(p in self.window() for p in points)

    def test_kfaults_correlated_points_cluster(self):
        scenario = KFaults(k=5, correlated_window=4)
        for seed in range(8):
            points = scenario.pick(self.picker(seed), self.window())
            assert max(points) - min(points) < 4
            assert all(p in self.window() for p in points)

    def test_burst_is_consecutive_and_clipped(self):
        for seed in range(8):
            points = BurstFault(length=6).pick(self.picker(seed), self.window())
            assert points == tuple(range(points[0], points[0] + len(points)))
            assert points[-1] < 50
        # A burst drawn near the window's end is clipped, never empty.
        tight = BurstFault(length=6).pick(self.picker(), range(49, 50))
        assert tight == (49,)

    def test_decay_plans_no_points(self):
        picker = self.picker()
        before = picker.bit_generator.state
        assert AtRestDecay().pick(picker, self.window()) == ()
        assert picker.bit_generator.state == before  # no draws consumed


class TestMultiShotHook:
    def signature(self):
        return FaultSignature(model=BitFlipFault(n_bits=1))

    def test_fires_once_per_instance_and_joins_notes(self):
        fs = FFISFileSystem()
        hook = MultiShotHook(self.signature(), (0, 2), seed=7)
        fs.interposer.add_hook("ffis_write", hook)
        with mount(fs) as mp:
            mp.write_file("/f.bin", b"x" * 64, block_size=16)
        assert hook.fired
        assert hook.fired_count == 2
        assert hook.note.count("BF:") == 2

    def test_point_zero_matches_single_fault_rng(self):
        """The first point draws from the run's root stream -- the exact
        stream the classic one-shot hook uses -- so one-point scenarios
        are bit-identical to the single-fault engine."""
        payload = bytes(range(256))
        outputs = []
        for instances in ((3,), None):
            fs = FFISFileSystem()
            if instances is None:
                spec = RunSpec(run_index=0, seed=123, target_instance=3)
                hook = SingleFault().arm(fs, self.signature(), spec)
            else:
                hook = MultiShotHook(self.signature(), instances, seed=123)
                fs.interposer.add_hook("ffis_write", hook)
            with mount(fs) as mp:
                mp.write_file("/f.bin", payload, block_size=32)
                outputs.append(mp.read_file("/f.bin"))
            assert hook.fired
        assert outputs[0] == outputs[1]

    def test_validation(self):
        with pytest.raises(FFISError):
            MultiShotHook(self.signature(), (), seed=1)
        with pytest.raises(FFISError):
            MultiShotHook(self.signature(), (-1, 2), seed=1)


class TestAtRestDecayHook:
    def populated_fs(self):
        fs = FFISFileSystem()
        with mount(fs) as mp:
            mp.makedirs("/data")
            mp.write_file("/data/a.bin", bytes(64))
        return fs

    def test_decay_flips_persisted_bits(self):
        fs = self.populated_fs()
        hook = AtRestDecayHook(fs, seed=5, n_bytes=4, region=None,
                               after_phase=None)
        hook.finalize()
        assert hook.fired
        assert "a.bin" in hook.note
        with mount(fs) as mp:
            data = mp.read_file("/data/a.bin")
        flipped = [b for b in data if b]
        assert 1 <= len(flipped) <= 4
        assert all(b & (b - 1) == 0 for b in flipped)  # one bit per byte

    def test_decay_respects_region(self):
        fs = self.populated_fs()
        hook = AtRestDecayHook(fs, seed=5, n_bytes=8, region=(16, 24),
                               after_phase=None)
        hook.finalize()
        with mount(fs) as mp:
            data = mp.read_file("/data/a.bin")
        assert all(b == 0 for b in data[:16]) and all(b == 0 for b in data[24:])
        assert any(data[16:24])

    def test_empty_fs_is_a_noted_no_fire(self):
        fs = FFISFileSystem()
        hook = AtRestDecayHook(fs, seed=5, n_bytes=2, region=None,
                               after_phase=None)
        hook.finalize()
        assert not hook.fired
        assert "no persisted bytes" in hook.note

    def test_region_beyond_every_file_is_a_no_fire(self):
        fs = self.populated_fs()
        hook = AtRestDecayHook(fs, seed=5, n_bytes=2, region=(1000, 2000),
                               after_phase=None)
        hook.finalize()
        assert not hook.fired

    def test_phase_targeted_decay_fires_at_the_boundary(self):
        fs = FFISFileSystem()
        hook = AtRestDecayHook(fs, seed=5, n_bytes=2, region=None,
                               after_phase="stage1")
        seen = {}
        with mount(fs) as mp:
            mp.write_file("/a.bin", bytes(32))
            clean = mp.read_file("/a.bin")
            fs.interposer.notify_phase_end("warmup")
            assert not hook.fired
            fs.interposer.notify_phase_end("stage1")
            assert hook.fired
            seen["after"] = mp.read_file("/a.bin")
        assert seen["after"] != clean
        # finalize() must not fire a phase-targeted decay a second time,
        # nor fire one whose phase never ran.
        hook.finalize()
        missed = AtRestDecayHook(FFISFileSystem(), seed=5, n_bytes=2,
                                 region=None, after_phase="never")
        missed.finalize()
        assert not missed.fired

    def test_decay_is_deterministic(self):
        images = []
        for _ in range(2):
            fs = self.populated_fs()
            AtRestDecayHook(fs, seed=9, n_bytes=3, region=None,
                            after_phase=None).finalize()
            with mount(fs) as mp:
                images.append(mp.read_file("/data/a.bin"))
        assert images[0] == images[1]


class TestScenarioCampaigns:
    def config(self, scenario, n_runs=3, model="BF"):
        return CampaignConfig(fault_model=model, n_runs=n_runs, seed=4,
                              scenario=scenario)

    def test_single_fault_plans_legacy_specs(self, tiny_nyx):
        plan = Campaign(tiny_nyx, self.config("single")).plan()
        assert all(spec.instances is None and spec.scenario is None
                   for spec in plan.specs)

    def test_kfaults_campaign_stamps_records(self, tiny_nyx):
        result = Campaign(tiny_nyx, self.config("k=3")).run()
        for record in result.records:
            assert record.scenario == "k=3"
            assert record.instances is not None
            assert 1 <= len(record.instances) <= 3
            assert record.target_instance == record.instances[0]
        assert result.scenario == "k=3"
        assert "<k=3>" in result.summary()

    def test_burst_records_are_consecutive(self, tiny_nyx):
        result = Campaign(tiny_nyx, self.config("burst=3")).run()
        for record in result.records:
            points = record.instances
            assert points == tuple(range(points[0], points[0] + len(points)))

    def test_decay_campaign_runs_without_instance_window(self, tiny_nyx):
        result = Campaign(tiny_nyx, self.config("decay:bytes=2")).run()
        assert len(result.records) == 3
        for record in result.records:
            assert record.instances == ()
            assert record.target_instance == -1
            assert record.fault_fired

    def test_scenario_extends_campaign_id(self, tiny_nyx, tiny_nyx_golden):
        single = Campaign(tiny_nyx, self.config("single"))
        kfaults = Campaign(tiny_nyx, self.config("k=3"))
        base = single.campaign_id(tiny_nyx_golden)
        assert "scenario=" not in base
        assert kfaults.campaign_id(tiny_nyx_golden) == base + "/scenario=k=3"

    def test_k1_matches_single_fault_outcomes(self, tiny_nyx):
        """KFaults(k=1) plans the same instance draws as SingleFault, so
        only the stamp differs -- outcomes must be identical."""
        single = Campaign(tiny_nyx, self.config("single", n_runs=4)).run()
        k1 = Campaign(tiny_nyx, self.config("k=1", n_runs=4)).run()
        for a, b in zip(single.records, k1.records):
            assert (a.outcome, a.target_instance) == (b.outcome, b.target_instance)
            assert b.instances == (b.target_instance,)

    def test_from_dict_accepts_scenario(self):
        config = CampaignConfig.from_dict(
            {"fault_model": "DW", "n_runs": 2, "scenario": "burst=2"})
        assert config.scenario == BurstFault(length=2)


class TestScenarioCli:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_campaign_scenario_flag(self):
        code, text = self.run_cli("campaign", "--app", "nyx", "--model", "BF",
                                  "--runs", "2", "--seed", "3",
                                  "--scenario", "k=2")
        assert code == 0
        assert "<k=2>" in text

    def test_sweep_scenario_axis(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        code, text = self.run_cli(
            "sweep", "--app", "nyx", "--model", "BF", "--runs", "2",
            "--seed", "3", "--scenario", "single", "--scenario", "k=2",
            "--out", path)
        assert code == 0
        assert "nyx-BF:" in text
        assert "nyx-BF-k=2:" in text
        assert "2 cells" in text

    def test_scenario_rejected_for_metadata_sweeps(self):
        with pytest.raises(SystemExit):
            self.run_cli("campaign", "--app", "nyx",
                         "--metadata-mode", "random-bit",
                         "--scenario", "k=2")

    def test_bad_scenario_spec_is_an_argparse_error(self, capsys):
        """A malformed spec is user input, so it gets a clean argparse
        error (like every other bad flag), not a raw traceback."""
        for argv in (("campaign", "--app", "nyx", "--model", "BF",
                      "--runs", "2", "--scenario", "warp=9"),
                     ("sweep", "--app", "nyx", "--model", "BF",
                      "--runs", "2", "--scenario", "k=x")):
            with pytest.raises(SystemExit) as exc:
                self.run_cli(*argv)
            assert exc.value.code == 2
            assert "scenario" in capsys.readouterr().err
