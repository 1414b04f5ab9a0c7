"""Tests for the HDF5-metadata byte-by-byte campaign (Sec. IV-D)."""

import pytest

from repro.core.metadata_campaign import MetadataCampaign
from repro.core.outcomes import Outcome
from repro.errors import FFISError


def annotated(app, seed):
    """A campaign annotated with the golden run's field map, and the
    located write it was harvested from."""
    campaign = MetadataCampaign(app, seed=seed)
    located = campaign.locate_metadata_write()
    campaign.fieldmap = app.last_write_result.fieldmap
    return campaign, located


@pytest.fixture(scope="module")
def located(tiny_nyx_module):
    campaign = MetadataCampaign(tiny_nyx_module)
    info, golden = campaign.locate_metadata_write()
    return campaign, info, golden


@pytest.fixture(scope="module")
def tiny_nyx_module():
    # Module-local copy to avoid cross-file fixture scope friction.
    from repro.apps.nyx import FieldConfig, NyxApplication
    config = FieldConfig(shape=(16, 16, 16), n_halos=2,
                         halo_amplitude=(800.0, 1500.0),
                         halo_radius=(0.6, 0.8))
    return NyxApplication(seed=77, field_config=config, min_cells=3)


class TestLocateMetadataWrite:
    def test_penultimate_write_is_the_blob(self, tiny_nyx_module, located):
        _, info, _ = located
        assert info.file_offset == 0
        assert info.size == tiny_nyx_module.last_write_result.plan.metadata_size
        # 4 data writes + metadata + flags at 16^3.
        assert info.write_index == 4

    def test_requires_two_writes(self):
        from repro.apps.base import HpcApplication

        class OneWrite(HpcApplication):
            name = "one"

            def run(self, mp):
                mp.write_file("/f", b"x")

            def output_paths(self):
                return ["/f"]

            def analyze(self, mp):
                return {}

            def classify(self, golden, mp):
                return Outcome.BENIGN, ""

        with pytest.raises(FFISError):
            MetadataCampaign(OneWrite()).locate_metadata_write()


class TestRunCase:
    def test_signature_byte_crashes(self, tiny_nyx_module, located):
        campaign, info, golden = located
        record = campaign.run_case(info, golden, byte_offset=0, bit=0,
                                   run_index=0)
        assert record.outcome is Outcome.CRASH

    def test_reserved_byte_benign(self, tiny_nyx_module, located):
        campaign, info, golden = located
        fieldmap = tiny_nyx_module.last_write_result.fieldmap
        span = next(s for s in fieldmap if "B-tree unused capacity" in s.name)
        record = campaign.run_case(info, golden, byte_offset=span.start,
                                   bit=4, run_index=0)
        assert record.outcome is Outcome.BENIGN

    def test_exponent_bias_byte_is_sdc(self, tiny_nyx_module, located):
        campaign, info, golden = located
        fieldmap = tiny_nyx_module.last_write_result.fieldmap
        span = next(s for s in fieldmap if "Exponent Bias" in s.name)
        record = campaign.run_case(info, golden, byte_offset=span.start,
                                   bit=0, run_index=0)
        assert record.outcome is Outcome.SDC

    def test_field_annotation(self, tiny_nyx_module, located):
        campaign, info, golden = located
        campaign.fieldmap = tiny_nyx_module.last_write_result.fieldmap
        record = campaign.run_case(info, golden, byte_offset=0, bit=0,
                                   run_index=0)
        assert record.field_name == "superblock.Superblock Signature"


class TestSweep:
    def test_strided_sweep_shape(self, tiny_nyx_module):
        campaign, located = annotated(tiny_nyx_module, seed=3)
        result = campaign.run(byte_stride=64, located=located)
        expected_cases = (result.metadata.size + 63) // 64
        assert result.tally.total == expected_cases
        # Benign dominates (the paper's headline proportion).
        assert result.tally.rate(Outcome.BENIGN) > 0.6
        for record in result.records:
            assert record.field_name is not None

    def test_all_bits_mode(self, tiny_nyx_module):
        campaign = MetadataCampaign(tiny_nyx_module, mode="all-bits")
        result = campaign.run(byte_stride=512)
        assert result.tally.total == ((result.metadata.size + 511) // 512) * 8

    def test_bad_mode_rejected(self, tiny_nyx_module):
        with pytest.raises(FFISError):
            MetadataCampaign(tiny_nyx_module, mode="every-other-tuesday")

    def test_sweep_is_replayable(self, tiny_nyx_module):
        a = MetadataCampaign(tiny_nyx_module, seed=5).run(byte_stride=128)
        b = MetadataCampaign(tiny_nyx_module, seed=5).run(byte_stride=128)
        assert [r.outcome for r in a.records] == [r.outcome for r in b.records]
        assert [r.bit_index for r in a.records] == [r.bit_index for r in b.records]

    def test_fields_by_outcome(self, tiny_nyx_module):
        campaign, located = annotated(tiny_nyx_module, seed=3)
        result = campaign.run(byte_stride=32, located=located)
        buckets = result.fields_by_outcome()
        assert any("unused" in name or "reserved" in name.lower()
                   for name in buckets[Outcome.BENIGN])
