"""Determinism and golden-fixture compatibility of the scenario engine.

Two contracts, both load-bearing for the scenario refactor:

* **executor independence** -- for *random* scenarios (property-based),
  serial, parallel, and fused-sweep execution produce record-for-record
  identical results and byte-identical JSONL checkpoints;
* **bit-compatibility** -- the ``SingleFault`` scenario reproduces the
  pre-scenario (PR 2) engine's records *byte for byte*: the committed
  fixtures under ``tests/data/`` were generated by the pre-refactor
  engine and whole-file compared here on every run.
"""

import filecmp
import os
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.base import GoldenRecord, HpcApplication
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine import (
    SweepPlan,
    execute_plan,
    execute_sweep,
    load_records,
    load_records_by_campaign,
)
from repro.core.engine.dist import FleetExecutor
from repro.core.engine.sweep import ProfileGoldenCache
from repro.core.outcomes import Outcome
from repro.core.scenario import (
    AtRestDecay,
    BurstFault,
    KFaults,
    SingleFault,
)
from repro.fusefs.mount import MountPoint

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: The app configuration the tests/data fixtures were generated with
#: (== the conftest ``tiny_nyx``), pinned here so a conftest edit can't
#: silently change what the golden comparison measures.
FIXTURE_CAMPAIGN = dict(n_runs=6, seed=4)


def fixture_app():
    from repro.apps.nyx import FieldConfig, NyxApplication

    return NyxApplication(seed=77, field_config=FieldConfig(
        shape=(16, 16, 16), n_halos=2, halo_amplitude=(800.0, 1500.0),
        halo_radius=(0.6, 0.8)), min_cells=3)


class ToyApp(HpcApplication):
    """A tiny two-stage deterministic workload for property tests.

    Cheap enough (a few KiB, no numpy fields) that hypothesis can run
    whole campaigns per example, yet shaped like the real apps: phased
    writes, a self-check (magic header) for DETECTED, byte comparison
    for SDC, and crash-on-truncation via the reader.
    """

    name = "toy"
    MAGIC = b"TOYF"

    def __init__(self, payload_seed: int = 3) -> None:
        super().__init__()
        rng = np.random.default_rng(payload_seed)
        self._blob = rng.integers(0, 256, size=2048, dtype=np.uint8).tobytes()

    def run(self, mp: MountPoint) -> None:
        mp.makedirs("/out")
        with self.phase("stage1"):
            mp.write_file("/out/a.bin", self.MAGIC + self._blob[:1024],
                          block_size=128)
        with self.phase("stage2"):
            mp.write_file("/out/b.bin", self._blob[1024:], block_size=128)

    def output_paths(self) -> List[str]:
        return ["/out/a.bin", "/out/b.bin"]

    def analyze(self, mp: MountPoint) -> Dict[str, object]:
        return {"checksum": sum(mp.read_file("/out/b.bin")) & 0xFFFF}

    def classify(self, golden: GoldenRecord, mp: MountPoint) -> Tuple[Outcome, str]:
        for path in self.output_paths():
            if not mp.exists(path):
                return Outcome.DETECTED, f"{path} missing"
        if not mp.read_file("/out/a.bin").startswith(self.MAGIC):
            return Outcome.DETECTED, "magic header check failed"
        if self.outputs_identical(golden, mp):
            return Outcome.BENIGN, "outputs bit-wise identical"
        return Outcome.SDC, "outputs differ, checks passed"


scenarios = st.one_of(
    st.just(SingleFault()),
    st.builds(KFaults,
              k=st.integers(min_value=1, max_value=4),
              correlated_window=st.one_of(
                  st.none(), st.integers(min_value=1, max_value=8))),
    st.builds(BurstFault, length=st.integers(min_value=1, max_value=5)),
    st.builds(AtRestDecay,
              n_bytes=st.integers(min_value=1, max_value=8),
              after_phase=st.sampled_from([None, "stage1"])),
)


def toy_campaign(scenario, model, seed, n_runs=3):
    config = CampaignConfig(fault_model=model, n_runs=n_runs, seed=seed,
                            scenario=scenario)
    return Campaign(ToyApp(), config)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios, model=st.sampled_from(["BF", "SW", "DW"]),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       cut=st.integers(min_value=0, max_value=5))
def test_serial_parallel_fused_checkpoints_are_identical(
        tmp_path_factory, scenario, model, seed, cut):
    """For any scenario, the execution styles must write the same
    records -- compared down to the JSONL checkpoint bytes.  The fused
    plan also runs on a 2-worker lease-queue fleet, fresh and resumed
    from its serial checkpoint cut after *cut* whole lines or in the
    middle of the next one, and each writes the serial bytes."""
    tmp = tmp_path_factory.mktemp("det")
    campaign = toy_campaign(scenario, model, seed)
    profile, golden = campaign.profile(), campaign.capture_golden()
    plan = campaign.plan(profile=profile, golden=golden)
    campaign_id = campaign.campaign_id(golden)

    paths = {name: str(tmp / f"{name}.jsonl")
             for name in ("serial", "parallel", "fused")}
    serial = execute_plan(plan, workers=1, results_path=paths["serial"],
                          campaign_id=campaign_id)
    parallel = execute_plan(plan, workers=2, results_path=paths["parallel"],
                            campaign_id=campaign_id)
    cache = ProfileGoldenCache()
    cache.golden(campaign.app, campaign.fs_factory, lambda: golden)
    other = toy_campaign(scenario, model, seed + 1 or 1)
    fused = SweepPlan(cells=(campaign.plan_cell("cell", cache),
                             other.plan_cell("other", cache)))
    sweep = execute_sweep(fused, results_path=paths["fused"])

    assert serial == parallel
    assert sweep.records["cell"] == serial
    assert filecmp.cmp(paths["serial"], paths["parallel"], shallow=False)
    # The fused checkpoint interleaves two cells; this cell's stamped
    # lines must decode back to exactly the serial records.
    groups = load_records_by_campaign(paths["fused"])
    assert groups[campaign_id] == serial

    with open(paths["fused"], "rb") as f:
        lines = f.read().splitlines(keepends=True)
    torn = lines[cut][:len(lines[cut]) // 2]
    for name, prefix in (("fleet", None),
                         ("fleet-cut", b"".join(lines[:cut])),
                         ("fleet-torn", b"".join(lines[:cut]) + torn)):
        path = str(tmp / f"{name}.jsonl")
        if prefix is not None:
            with open(path, "wb") as f:
                f.write(prefix)
        resume = prefix is not None
        execute_sweep(fused, results_path=path, resume=resume,
                      executor=FleetExecutor(str(tmp / f"{name}-queue"),
                                             resume=resume, timeout=120.0))
        assert filecmp.cmp(paths["fused"], path, shallow=False), name


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_records_round_trip_through_jsonl(tmp_path_factory, scenario, seed):
    tmp = tmp_path_factory.mktemp("rt")
    path = str(tmp / "r.jsonl")
    campaign = toy_campaign(scenario, "BF", seed, n_runs=2)
    records = execute_plan(campaign.plan(), results_path=path)
    assert load_records(path) == records


class TestGoldenFixtures:
    """Byte-compatibility against the committed pre-refactor fixtures."""

    @pytest.mark.parametrize("model, fixture", [
        ("BF", "pr2_single_fault.jsonl"),
        ("DW", "pr2_single_fault_dw.jsonl"),
    ])
    def test_single_fault_reproduces_pr2_checkpoint_bytes(
            self, tmp_path, model, fixture):
        campaign = Campaign(fixture_app(), CampaignConfig(
            fault_model=model, **FIXTURE_CAMPAIGN))
        path = str(tmp_path / "new.jsonl")
        campaign.run(results_path=path)
        assert filecmp.cmp(os.path.join(DATA_DIR, fixture), path,
                           shallow=False), \
            "SingleFault records diverged from the pre-scenario engine"

    def test_campaign_identity_is_unchanged(self):
        """PR 2 checkpoints are stamped with this exact identity; the
        scenario refactor must not perturb it or they stop resuming."""
        campaign = Campaign(fixture_app(), CampaignConfig(
            fault_model="BF", **FIXTURE_CAMPAIGN))
        golden = campaign.capture_golden()
        assert campaign.campaign_id(golden) == (
            "nyx/BF on ffis_write (flip 2 consecutive bits)"
            "/phase=all/seed=4/golden=3f9d1d4a4304")

    def test_fixture_lines_are_schema_v1(self):
        with open(os.path.join(DATA_DIR, "pr2_single_fault.jsonl")) as f:
            assert all('"v": 1' in line for line in f)
