"""The replay determinism guard: replayed records == cold records.

This is the fast-lane CI gate for the prefix-replay engine: a small
campaign grid over the real applications, every record stream produced
twice -- once with prefix replay (restore + suffix fast-forward), once
cold from an empty file system -- and asserted byte-identical.  A
snapshot-aliasing or splice-soundness bug fails here rather than
silently skewing outcome rates.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.apps.montage.background as montage_background
import repro.apps.qmcpack.app as qmcpack_app
import repro.core.engine.runner as runner
from repro.apps.montage import MontageApplication, SkyConfig
from repro.apps.nyx import FieldConfig, NyxApplication
from repro.apps.qmcpack import QmcpackApplication
from repro.apps.qmcpack.app import CONFIG_FILE, RUN_DIR, WALKER_DATASET
from repro.apps.qmcpack.dmc import DmcParams, run_dmc
from repro.apps.qmcpack.vmc import VmcParams
from repro.apps.qmcpack.wavefunction import HeliumWavefunction
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine import (
    RunPlan,
    RunSpec,
    SweepCell,
    SweepPlan,
    execute_run_spec,
    execute_sweep,
)
from repro.core.engine.dist import FleetExecutor
from repro.core.engine.dist.chaos import ChaosCrash
from repro.core.engine.runner import execute_window
from repro.core.metadata_campaign import ByteCorruptionContext, MetadataCampaign
from repro.core.outcomes import Outcome
from repro.errors import FFISError
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem
from repro.mhdf5.api import File
from repro.mhdf5.fieldmap import FieldClass
from repro.mfits.io import BLOCK_SIZE
from repro.mhdf5.reader import Hdf5Reader
from repro.util.rngstream import RngStream


def small_nyx() -> NyxApplication:
    return NyxApplication(seed=77, field_config=FieldConfig(
        shape=(16, 16, 16), n_halos=2, halo_amplitude=(800.0, 1500.0),
        halo_radius=(0.6, 0.8)), min_cells=3)


def small_montage() -> MontageApplication:
    return MontageApplication(seed=11, sky_config=SkyConfig(
        canvas_shape=(64, 64), tile_shape=(32, 32), n_tiles=6, n_stars=40))


def small_qmcpack() -> QmcpackApplication:
    return QmcpackApplication(
        seed=21,
        vmc_params=VmcParams(n_walkers=24, n_blocks=12, warmup_blocks=2),
        dmc_params=DmcParams(target_walkers=24, n_blocks=14),
        equilibration=2)


APPS = {"nyx": small_nyx, "montage": small_montage, "qmcpack": small_qmcpack}

CASES = [
    # (app, model, phase, scenario) -- every fault model, stage-targeted
    # Montage windows, multi-point scenarios, and both decay modes.
    ("nyx", "BF", None, None),
    ("qmcpack", "BF", None, None),
    ("qmcpack", "DW", None, None),
    ("qmcpack", "SW", None, "k=2"),
    ("montage", "BF", "mAdd", None),
    ("montage", "SW", "mBgExec", None),
    ("montage", "DW", "mProjExec", None),
    ("montage", "BF", None, "burst=3"),
    ("qmcpack", "BF", None, "decay:bytes=4"),
    ("montage", "BF", None, "decay:bytes=4,after=mDiffExec"),
]


@pytest.mark.parametrize("app_id,model,phase,scenario", CASES)
def test_replayed_records_equal_cold_records(app_id, model, phase, scenario):
    def run(replay):
        config = CampaignConfig(fault_model=model, n_runs=5, seed=13,
                                phase=phase, scenario=scenario,
                                replay=replay)
        return Campaign(APPS[app_id](), config).run().records

    assert run(True) == run(False)


def test_replayed_metadata_sweep_equals_cold(monkeypatch):
    def run(no_replay):
        if no_replay:
            monkeypatch.setenv("REPRO_NO_REPLAY", "1")
        else:
            monkeypatch.delenv("REPRO_NO_REPLAY", raising=False)
        campaign = MetadataCampaign(small_nyx(), seed=3, mode="random-bit")
        return campaign.run(byte_stride=256).records

    assert run(False) == run(True)


def test_replayed_parallel_sweep_equals_cold_serial():
    """Replay composes with the fused sweep and the process pool."""
    from repro.study import ModelSpec, ScenarioSpec, Study, StudySpec, TargetSpec

    def spec(workers):
        return StudySpec(
            name="guard",
            targets=(TargetSpec(app="montage", phase="mAdd", label="MT4"),
                     TargetSpec(app="montage", phase="mBgExec", label="MT3")),
            models=(ModelSpec(model="BF"), ModelSpec(model="DW")),
            scenarios=(ScenarioSpec(),),
            runs=4, seed=2, workers=workers)

    import os

    replayed = Study(spec(workers=2), apps={"montage": small_montage()}).run()
    os.environ["REPRO_NO_REPLAY"] = "1"
    try:
        cold = Study(spec(workers=1), apps={"montage": small_montage()}).run()
    finally:
        del os.environ["REPRO_NO_REPLAY"]
    assert replayed.keys() == cold.keys()
    for key in replayed.keys():
        assert replayed.cell(key) == cold.cell(key)


def flip_record(app, golden, seqno, byte_offset, bit, replay=None):
    """The record of one run flipping *bit* of byte *byte_offset* of
    ``ffis_write`` *seqno* (``replay=False``: executed cold)."""
    context = ByteCorruptionContext(app, golden, seqno)
    context.replay = replay
    return execute_run_spec(context, RunSpec(
        run_index=0, target_instance=seqno, byte_offset=byte_offset,
        bit_index=bit))


def without_memos(golden):
    """*golden* with an empty memo mapping: replayed runs against it
    restore and splice as usual but find no golden work to reuse."""
    return dataclasses.replace(
        golden, replay=dataclasses.replace(golden.replay, memos={}))


class TestGoldenProjectionReuse:
    """A replayed QMC run follows the golden DMC trajectory the capture
    kept and stops where it rejoins it; the record must equal a replayed
    run's with no memo and a cold run's, and only the capture records
    block marks."""

    @staticmethod
    def capture(app):
        """Golden capture, its ``ffis_write`` trace, and the walker
        file's write layout (the writer's field map and metadata blob)."""
        fs = FFISFileSystem()
        writes = []

        def trace(call):
            writes.append((call.seqno, call.args["offset"],
                           bytes(call.args["buf"])))

        fs.interposer.add_hook("ffis_write", trace)
        with mount(fs) as mp:
            golden = app.capture_golden(mp)
            walkers = Hdf5Reader(mp, CONFIG_FILE).read(WALKER_DATASET)
        with mount(FFISFileSystem()) as mp:
            mp.makedirs(RUN_DIR)
            with File(mp, CONFIG_FILE, "w") as f:
                f.create_dataset(WALKER_DATASET, walkers)
        return golden, writes, f.write_result

    @pytest.fixture
    def projections(self, monkeypatch):
        """One ``[follow, records marks, evaluations]`` entry per
        projection: the trajectory it was given, whether it recorded
        block marks, and the walker sets it evaluated."""
        log, active = [], []
        original = qmcpack_app.run_dmc
        evaluate = HeliumWavefunction.evaluate_into

        def counting(self, *args):
            if active:
                active[0][2] += 1
            evaluate(self, *args)

        def logging(*args, **kwargs):
            entry = [kwargs.get("follow"), kwargs.get("marks") is not None, 0]
            log.append(entry)
            active.append(entry)
            try:
                return original(*args, **kwargs)
            finally:
                active.clear()

        monkeypatch.setattr(qmcpack_app, "run_dmc", logging)
        monkeypatch.setattr(HeliumWavefunction, "evaluate_into", counting)
        return log

    def test_reserved_byte_reuses_and_data_flip_reprojects(self, projections):
        app = small_qmcpack()
        golden, writes, layout = self.capture(app)
        params = app.dmc_params
        full = 1 + params.n_blocks * params.steps_per_block
        assert projections == [[None, True, full]]  # the golden projection
        trajectory = golden.replay.memos["dmc"]
        blob = layout.metadata_blob
        meta = next(seqno for seqno, offset, buf in writes
                    if offset == 0 and buf == blob)
        # The superblock flags are rewritten after the blob; a byte there
        # would not survive to the reader.
        flags_seqno, flags_at, flags = writes[meta + 1]
        assert flags_seqno == meta + 1
        reserved = next(
            span for span in layout.fieldmap
            if span.cls is FieldClass.RESERVED and span.end <= len(blob)
            and (span.end <= flags_at or span.start >= flags_at + len(flags)))
        data_at = layout.plan.datasets[0].data_address
        data = next(seqno for seqno, offset, _ in writes if offset == data_at)

        # One flipped walker bit: a different array, a full projection.
        flipped = flip_record(app, golden, data, 100, 4)
        assert projections[-1] == [trajectory, False, full]
        assert flipped.fault_fired
        assert flipped == flip_record(app, without_memos(golden), data, 100, 4)
        assert projections[-1] == [None, False, full]

        # A reserved metadata byte: the golden walkers, which rejoin the
        # trajectory at the first block end.
        reused = flip_record(app, golden, meta, reserved.start, 0)
        assert projections[-1] == [trajectory, False,
                                   1 + params.steps_per_block]
        assert reused.fault_fired

        # Cold execution is the reference: it never follows.
        cold = flip_record(app, golden, meta, reserved.start, 0, replay=False)
        assert projections[-1] == [None, False, full]
        assert cold == reused
        assert len(projections) == 5       # one run_dmc call per run

    def test_data_flip_that_rejoins_golden_stops_early(self, projections):
        """The top exponent bit of a walker the population soon drops:
        the replayed projection rejoins the golden trajectory at block 8
        and takes its later rows and final walkers."""
        app = small_qmcpack()
        golden, writes, layout = self.capture(app)
        params = app.dmc_params
        full = 1 + params.n_blocks * params.steps_per_block
        assert projections == [[None, True, full]]  # the golden projection
        trajectory = golden.replay.memos["dmc"]
        assert len(trajectory.marks) == params.n_blocks
        data_at = layout.plan.datasets[0].data_address
        data = next(seqno for seqno, offset, _ in writes if offset == data_at)

        replayed = flip_record(app, golden, data, 919, 6)
        assert projections[-1] == [trajectory, False,
                                   1 + 9 * params.steps_per_block]
        assert replayed.fault_fired
        assert replayed.outcome is Outcome.DETECTED
        assert golden.replay.memos == {"dmc": trajectory}  # golden's stays

        # An empty memo mapping projects to the end.
        fresh = flip_record(app, without_memos(golden), data, 919, 6)
        assert projections[-1] == [None, False, full]
        # Cold execution is the reference: it never follows.
        cold = flip_record(app, golden, data, 919, 6, replay=False)
        assert projections[-1] == [None, False, full]
        assert replayed == fresh == cold

    def test_cold_run_keeps_nothing_and_the_capture_records(self, projections):
        """The first projection of an instance is a cold one: it records
        no marks, and the capture after it still keeps the trajectory."""
        app = small_qmcpack()
        params = app.dmc_params
        full = 1 + params.n_blocks * params.steps_per_block
        with mount(FFISFileSystem()) as mp:
            app.execute(mp)
        assert projections == [[None, False, full]]
        golden, _, _ = self.capture(app)
        assert projections[-1] == [None, True, full]
        assert len(golden.replay.memos["dmc"].marks) == params.n_blocks


class TestWindowBatching:
    """Inside an execution window, every replayed QMC run that reaches a
    live ``dmc_compute`` parks in the first pass and takes its
    projection from one DMC batch in the second.  Checkpoints must not
    show it: serial cold, serial replayed, pool, fleet and a resumed
    checkpoint write the same bytes."""

    #: ``(byte offset, bit)`` flips of the walker-data write: each a
    #: diverged walker set (``(919, 6)`` rejoins golden at block 8), the
    #: first one twice.
    FLIPS = [(100, 4), (919, 6), (8, 3), (333, 7), (500, 1), (100, 4),
             (42, 0), (777, 5)]

    @pytest.fixture(scope="class")
    def captured(self):
        app = small_qmcpack()
        golden, writes, layout = TestGoldenProjectionReuse.capture(app)
        data_at = layout.plan.datasets[0].data_address
        data = next(seqno for seqno, offset, _ in writes if offset == data_at)
        return app, golden, data

    def sweep(self, captured, replay=None) -> SweepPlan:
        app, golden, data = captured
        context = ByteCorruptionContext(app, golden, data)
        context.replay = replay
        specs = tuple(RunSpec(run_index=i, target_instance=data,
                              byte_offset=offset, bit_index=bit)
                      for i, (offset, bit) in enumerate(self.FLIPS))
        return SweepPlan(cells=(SweepCell(
            "walkers", RunPlan(context=context, specs=specs),
            campaign_id="window-batching"),))

    @pytest.fixture
    def projections(self, monkeypatch):
        """Every projection the app makes: ``("alone", follow)`` per
        run_dmc call, ``("batch", K)`` per run_dmc_batch call."""
        log = []
        alone, batch = qmcpack_app.run_dmc, qmcpack_app.run_dmc_batch

        def logged_alone(*args, **kwargs):
            log.append(("alone", kwargs.get("follow")))
            return alone(*args, **kwargs)

        def logged_batch(wf, walker_sets, *args, **kwargs):
            log.append(("batch", len(walker_sets)))
            return batch(wf, walker_sets, *args, **kwargs)

        monkeypatch.setattr(qmcpack_app, "run_dmc", logged_alone)
        monkeypatch.setattr(qmcpack_app, "run_dmc_batch", logged_batch)
        return log

    def test_window_is_invisible_in_records(self, captured, projections,
                                            monkeypatch, tmp_path):
        executions = []
        real = runner.execute_run_spec

        def counted(context, spec):
            executions.append(spec.run_index)
            return real(context, spec)

        monkeypatch.setattr(runner, "execute_run_spec", counted)

        def checkpoint(name, sweep, **knobs):
            path = str(tmp_path / f"{name}.jsonl")
            execute_sweep(sweep, results_path=path, **knobs)
            with open(path, "rb") as f:
                return f.read()

        n = len(self.FLIPS)
        cold = checkpoint("cold", self.sweep(captured, replay=False))
        assert projections == [("alone", None)] * n   # cold never batches
        assert executions == list(range(n))

        projections.clear()
        executions.clear()
        sweep = self.sweep(captured)
        replayed = checkpoint("serial", sweep)
        # Every run parked, then took its set's projection from the one
        # batch of the window's 7 distinct walker sets: none projected
        # alone.
        assert projections == [("batch", n - 1)]
        assert executions == list(range(n)) * 2
        assert replayed == cold

        assert checkpoint("pool", sweep, workers=2) == cold
        assert checkpoint("fleet", sweep, executor=FleetExecutor(
            str(tmp_path / "queue"), workers=2)) == cold
        cut = tmp_path / "resumed.jsonl"
        cut.write_bytes(b"".join(cold.splitlines(keepends=True)[:3]))
        assert checkpoint("resumed", sweep, resume=True) == cold

    @pytest.mark.parametrize("error", [FFISError("misuse"),
                                       ChaosCrash("killed"),
                                       KeyboardInterrupt()],
                             ids=["FFISError", "ChaosCrash",
                                  "KeyboardInterrupt"])
    def test_a_raising_window_leaves_no_state(self, captured, error,
                                              monkeypatch):
        """A run that raises in the second pass, once the batch is
        projected, ends the window: the app holds no window, and the
        window's parked inputs and results are gone."""
        sweep = self.sweep(captured)
        app = captured[0]
        context = sweep.cells[0].plan.context
        items = [("walkers", spec) for spec in sweep.cells[0].plan.specs]
        seen = []
        real = runner.execute_run_spec

        def failing(context, spec):
            seen.append(context.app.window)
            if len(seen) == len(items) + 2:
                assert context.app.window.results
                raise error
            return real(context, spec)

        monkeypatch.setattr(runner, "execute_run_spec", failing)
        with pytest.raises(type(error)):
            list(execute_window({"walkers": context}, items))
        window = seen[0]
        assert all(seen_window is window for seen_window in seen)
        assert app.window is None
        assert window.parked == {} and window.results == {}

    def test_parked_sets_project_in_batches_of_one_shape(self, captured,
                                                         projections):
        """Parked walker sets of two walker counts project in one batch
        per count, each as it would alone; a set no projection accepts
        gets run_dmc's error back."""
        app, golden, _ = captured
        trajectory = golden.replay.memos["dmc"]
        walkers = app._vmc_walkers
        flipped = walkers.copy()
        flipped[3, 1, 2] = 7.5
        sets = [walkers, flipped, walkers[:12], flipped[:12],
                walkers.reshape(-1, 6)]
        keys = [(w.dtype.str, w.shape, w.tobytes()) for w in sets]
        by_key = app._project_parked(
            {key: (w, trajectory) for key, w in zip(keys, sets)})
        results = [by_key[key] for key in keys]
        assert sorted(projections) == [("batch", 2), ("batch", 2)]
        for w, result in zip(sets[:4], results[:4]):
            rng = RngStream(app.seed, "qmcpack", "dmc").generator()
            final, rows = run_dmc(app.wf, w, app.dmc_params, rng)
            assert result[0].tobytes() == final.tobytes()
            assert [repr(row) for row in result[1]] == \
                [repr(row) for row in rows]
        with pytest.raises(ValueError) as alone:
            run_dmc(app.wf, sets[4], app.dmc_params,
                    RngStream(app.seed, "qmcpack", "dmc").generator())
        assert type(results[4]) is ValueError
        assert str(results[4]) == str(alone.value)


class TestGoldenPlaneFitReuse:
    """A replayed Montage run takes the golden plane fit of every
    difference file whose bytes are unchanged and refits only the rest;
    the record must equal a replayed run's with no memo, and cold runs
    must still fit every difference image."""

    @staticmethod
    def capture(app):
        """Golden capture and its ``mDiffExec`` writes
        ``(seqno, offset, bytes)``: a header block, then data blocks,
        per difference file."""
        fs = FFISFileSystem()
        writes = []

        def trace(call):
            writes.append((call.seqno, call.args["offset"],
                           bytes(call.args["buf"])))

        fs.interposer.add_hook("ffis_write", trace)
        with mount(fs) as mp:
            golden = app.capture_golden(mp)
        span = golden.phase("mDiffExec")
        return golden, [w for w in writes if span.start <= w[0] < span.end]

    @pytest.fixture
    def fit_calls(self, monkeypatch):
        calls = []
        original = montage_background.fit_plane

        def counting(hdu):
            calls.append(1)
            return original(hdu)

        monkeypatch.setattr(montage_background, "fit_plane", counting)
        return calls

    def test_flipped_pixel_refits_that_diff_alone(self, fit_calls):
        app = small_montage()
        golden, diff_writes = self.capture(app)
        n_diffs = len(fit_calls)            # the golden capture fits them all
        fits = golden.replay.memos["plane_fits"]
        assert n_diffs == len(fits) >= 2
        data = next(seqno for seqno, offset, _ in diff_writes
                    if offset == BLOCK_SIZE)

        flipped = flip_record(app, golden, data, 100, 6)
        assert flipped.fault_fired
        assert len(fit_calls) == n_diffs + 1
        assert golden.replay.memos == {"plane_fits": fits}  # golden's stay
        assert len(fits) == n_diffs
        fresh = flip_record(app, without_memos(golden), data, 100, 6)
        assert len(fit_calls) == 2 * n_diffs + 1   # no memo: fits them all
        assert flipped == fresh

        # Cold execution is the reference: it never takes a stored fit.
        cold = flip_record(app, golden, data, 100, 6, replay=False)
        assert len(fit_calls) == 3 * n_diffs + 1
        assert cold == flipped

    def test_header_only_change_is_refitted(self, fit_calls):
        """Golden pixel bytes under a changed ``CRPIX1`` card: the key is
        the whole file, so keying on the pixel data alone fails here."""
        app = small_montage()
        golden, diff_writes = self.capture(app)
        n_diffs = len(fit_calls)
        seqno, _, header = next(w for w in diff_writes if w[1] == 0)
        # The units digit of the value: bit 0 turns it into another digit.
        digit = header.index(b".", header.index(b"CRPIX1")) - 1

        changed = flip_record(app, golden, seqno, digit, 0)
        assert changed.fault_fired
        assert len(fit_calls) == n_diffs + 1
        assert changed == flip_record(app, without_memos(golden), seqno,
                                      digit, 0)
