"""One golden capture per application serves every kind of cell.

The golden capture records every fault-free write's ``(offset, size)``,
so the two things a campaign needs from a fault-free run are derived
from that one record:

* the metadata campaign's target, the penultimate ``ffis_write``
  (paper Sec. IV-D), checked here against an independent write tracer
  on a plain execution;
* the I/O profile of any primitive, checked against a separate
  :class:`IOProfiler` run.

A study mixing fault and metadata targets over one application then
runs it fault-free exactly once, whichever target comes first.
"""

import dataclasses

import pytest

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.metadata_campaign import MetadataCampaign
from repro.core.profiler import IOProfiler
from repro.errors import FFISError
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem
from repro.study import Study, StudySpec
from repro.study.apps import resolve_app_factory
from repro.study.spec import ModelSpec, TargetSpec

from tests.test_profiler_hooks_edges import IdlePhaseApp, SilentApp
from tests.test_replay import ChainApp
from tests.test_scenario_determinism import ToyApp
from tests.test_study_run import fixture_montage, fixture_nyx
from tests.test_sweep import CountingFsFactory

REGISTERED_APPS = ("nyx", "nyx-small", "qmcpack", "montage")


@pytest.fixture(scope="module", params=REGISTERED_APPS)
def registered_app(request):
    return resolve_app_factory(request.param)()


FIXTURE_APPS = {
    "tiny-nyx": fixture_nyx,
    "tiny-montage": fixture_montage,
    "toy": ToyApp,
    "chain": ChainApp,
    "idle-phase": IdlePhaseApp,
}


def traced_writes(app):
    """Reference write log: a hook on a plain (non-capturing) execution
    records every ``ffis_write`` as ``(seqno, offset, size)``."""
    fs = FFISFileSystem()
    writes = []

    def tracer(call):
        writes.append((call.seqno, call.args["offset"], call.args["size"]))

    fs.interposer.add_hook("ffis_write", tracer)
    with mount(fs) as mp:
        app.execute(mp)
    return writes


def assert_site_matches_tracer(app):
    writes = traced_writes(app)
    assert len(writes) >= 2
    info, golden = MetadataCampaign(app).locate_metadata_write()
    assert (info.write_index, info.file_offset, info.size) == writes[-2]
    assert golden.writes == [(offset, size) for _, offset, size in writes]


class TestMetadataSite:
    def test_registered_apps_match_the_tracer(self, registered_app):
        assert_site_matches_tracer(registered_app)

    @pytest.mark.parametrize("name", sorted(FIXTURE_APPS))
    def test_fixture_apps_match_the_tracer(self, name):
        assert_site_matches_tracer(FIXTURE_APPS[name]())

    def test_fewer_than_two_writes_is_refused(self):
        app = SilentApp()
        assert traced_writes(app) == []
        with pytest.raises(FFISError, match="performed 0 writes"):
            MetadataCampaign(app).locate_metadata_write()


class TestProfileFromGolden:
    def test_every_primitive_matches_a_profiler_run(self, registered_app):
        campaign = Campaign(registered_app, CampaignConfig(fault_model="BF"))
        golden = campaign.capture_golden()
        assert golden.primitive_counts
        for primitive in golden.primitive_counts:
            campaign.signature = dataclasses.replace(campaign.signature,
                                                     primitive=primitive)
            assert campaign.profile_from_golden(golden) == \
                IOProfiler().profile(registered_app, campaign.signature)


class TestOneCaptureInEitherOrder:
    @pytest.mark.parametrize("fault_first", [True, False])
    def test_mixed_study_runs_the_app_fault_free_once(self, tiny_nyx,
                                                      fault_first):
        fault = TargetSpec(app="nyx", label="f")
        meta = TargetSpec(app="nyx", label="m", kind="metadata", stride=512)
        spec = StudySpec(name="mixed",
                         targets=(fault, meta) if fault_first
                         else (meta, fault),
                         models=(ModelSpec(model="DW"),),
                         order="target", runs=2, seed=1)
        factory = CountingFsFactory()
        plan = Study(spec, apps={"nyx": tiny_nyx}, fs_factory=factory).plan()
        assert [cell.key for cell in plan.cells][0] == \
            ("f-DW" if fault_first else "m")
        assert factory.count == 1
        assert plan.cache.fault_free_runs() == 1
        results = plan.execute()
        assert results.fault_free_runs == 1
        # The field map is harvested from the shared capture either way.
        assert all(record.field_name for record in results.cell("m"))
