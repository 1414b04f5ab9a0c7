"""Fast-lane smoke tests for every example.

The examples double as documentation; running them (at a tiny scale)
keeps their imports and the public surface they demonstrate honest.
"""

import importlib.util
import os
import re


EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def load_example(name: str):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_runs_at_tiny_scale(self, capsys):
        quickstart = load_example("quickstart")
        quickstart.main(n_runs=3, shape=(16, 16, 16))
        text = capsys.readouterr().out
        assert "Nyx under storage faults (3 injections per model)" in text
        for key in ("nyx-BF", "nyx-SW", "nyx-DW"):
            assert key in text
        # The fused study pays one golden capture for all models.
        assert "1 shared fault-free runs" in text


class TestMontageStageStudy:
    def test_grid_spec_is_the_paper_grid(self):
        example = load_example("montage_stage_study")
        spec = example.stage_grid_spec(n_runs=2)
        keys = [cell.key for cell in spec.cells()]
        assert keys[:4] == ["MT1-BF", "MT2-BF", "MT3-BF", "MT4-BF"]
        assert len(keys) == 12

    def test_runs_at_tiny_scale(self, capsys):
        from repro.apps.montage import MontageApplication, SkyConfig

        example = load_example("montage_stage_study")
        app = MontageApplication(seed=11, sky_config=SkyConfig(
            canvas_shape=(64, 64), tile_shape=(32, 32),
            n_tiles=6, n_stars=40))
        example.main(n_runs=2, app=app)
        text = capsys.readouterr().out
        assert "fault-free pipeline" in text
        assert "12 cells fused" in text
        assert "MT4-DW" in text
        # All 12 cells share one golden capture (profile derived from it).
        assert "1 shared fault-free runs" in text


class TestCompressedCheckpoints:
    def test_runs_at_tiny_scale(self, capsys):
        load_example("compressed_checkpoints").main(n_runs=3,
                                                    shape=(16, 16, 16))
        text = capsys.readouterr().out
        assert "compressed   BF outcomes:" in text


class TestCustomApplication:
    def test_runs_at_tiny_scale(self, capsys):
        load_example("custom_application").main(n_runs=3, n_records=20)
        text = capsys.readouterr().out
        assert "tiny-kv/DW" in text


class TestNyxMetadataStudy:
    def test_runs_at_tiny_scale(self, capsys):
        from repro.experiments.params import nyx_small

        load_example("nyx_metadata_study").main(byte_stride=256,
                                                table4_app=nyx_small())
        text = capsys.readouterr().out
        assert "Table IV: what each SDC-capable field does" in text
        assert "repair    : success=True" in text


class TestQmcpackRestartFaults:
    def test_runs_at_tiny_scale(self, capsys):
        from repro.apps.qmcpack import DmcParams, QmcpackApplication, VmcParams

        app = QmcpackApplication(
            seed=2021, vmc_params=VmcParams(n_walkers=24, n_blocks=12,
                                            warmup_blocks=2),
            dmc_params=DmcParams(target_walkers=24, n_blocks=30),
            equilibration=5)
        load_example("qmcpack_restart_faults").main(n_runs=2, app=app)
        text = capsys.readouterr().out
        # 24 walkers fit in one write under 4 KiB; the bit still lands.
        changed = re.search(r"bytes changed : (\d+)", text)
        assert changed and int(changed.group(1)) > 0, text
        assert "campaigns (2 runs per fault model):" in text
        assert "qmcpack/DW" in text
