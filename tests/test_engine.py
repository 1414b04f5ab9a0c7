"""Tests for the campaign execution engine: plans, executors, sinks.

The determinism contract is the load-bearing one: a campaign must
produce record-for-record identical results whether it runs serially,
across worker processes, or split over an interrupted-then-resumed pair
of invocations.
"""

import io
import json
import pickle

import pytest

from repro.analysis.stats import as_tally, campaign_error_bars
from repro.cli import main
from repro.core.campaign import Campaign, InjectionContext
from repro.core.config import CampaignConfig
from repro.core.engine import (
    JsonlSink,
    ParallelExecutor,
    RunPlan,
    RunSpec,
    SerialExecutor,
    SweepCell,
    SweepPlan,
    load_records,
    make_executor,
    record_from_json,
    record_to_json,
)
from repro.core.metadata_campaign import MetadataCampaign
from repro.core.outcomes import Outcome, OutcomeTally, RunRecord
from repro.errors import ConfigError, FFISError


def one_cell(key, context=None):
    """A one-cell sweep plan: what an executor reads contexts from."""
    return SweepPlan(cells=(SweepCell(key, RunPlan(context=context,
                                                   specs=())),))


@pytest.fixture
def bf_config():
    return CampaignConfig(fault_model="BF", n_runs=6, seed=11)


class TestRunSpec:
    def test_picklable(self):
        spec = RunSpec(run_index=4, seed=99, target_instance=2, phase="mAdd",
                       byte_offset=7, bit_index=3, field_name="f")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_plan_is_declarative(self, tiny_nyx, bf_config):
        plan = Campaign(tiny_nyx, bf_config).plan()
        assert len(plan) == 6
        assert [spec.run_index for spec in plan] == list(range(6))
        # Replanning yields the same specs: nothing depends on call order.
        again = Campaign(tiny_nyx, bf_config).plan()
        assert plan.specs == again.specs


class TestExecutorEquivalence:
    def test_parallel_matches_serial_records(self, tiny_nyx, bf_config):
        serial = Campaign(tiny_nyx, bf_config).run()
        parallel = Campaign(tiny_nyx, bf_config).run(workers=2)
        assert serial.records == parallel.records

    def test_explicit_executors_interchangeable(self, tiny_nyx, bf_config):
        plan = Campaign(tiny_nyx, bf_config).plan()
        sweep = SweepPlan(cells=(SweepCell("plan", plan),))
        items = [("plan", spec) for spec in plan.specs]
        serial = list(SerialExecutor().map_tagged(sweep, items))
        parallel = list(ParallelExecutor(workers=3).map_tagged(sweep, items))
        assert serial == parallel

    def test_metadata_sweep_parallel_matches_serial(self, tiny_nyx):
        serial = MetadataCampaign(tiny_nyx, seed=5).run(byte_stride=256)
        parallel = MetadataCampaign(tiny_nyx, seed=5, workers=2).run(
            byte_stride=256)
        assert serial.records == parallel.records

    def test_make_executor(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(4), ParallelExecutor)
        with pytest.raises(ConfigError):
            make_executor(0)
        with pytest.raises(ConfigError):
            ParallelExecutor(workers=0)

    def test_config_validates_engine_knobs(self):
        with pytest.raises(ConfigError):
            CampaignConfig(workers=0)
        with pytest.raises(ConfigError):
            CampaignConfig(resume=True)
        config = CampaignConfig.from_dict(
            {"fault_model": "BF", "workers": 4,
             "results_path": "r.jsonl", "resume": True})
        assert config.workers == 4


class _InstrumentedFuture:
    def __init__(self, pool, value):
        self._pool, self._value = pool, value

    def result(self):
        self._pool.outstanding -= 1
        return self._value


class _InstrumentedPool:
    """In-process ProcessPoolExecutor stand-in counting live futures."""

    last = None

    def __init__(self, max_workers=None, mp_context=None,
                 initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)
        self.max_workers = max_workers
        self.outstanding = 0
        self.max_outstanding = 0
        self.submissions = 0
        self.shutdowns = []
        _InstrumentedPool.last = self

    def submit(self, fn, *args):
        self.outstanding += 1
        self.submissions += 1
        self.max_outstanding = max(self.max_outstanding, self.outstanding)
        return _InstrumentedFuture(self, fn(*args))

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})


@pytest.fixture
def instrumented_pool(monkeypatch):
    """Swap the process pool for :class:`_InstrumentedPool` and every
    run for a stub record."""
    from repro.core.engine import executor as executor_module
    from repro.core.engine import runner as runner_module

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                        _InstrumentedPool)
    monkeypatch.setattr(
        runner_module, "execute_run_spec",
        lambda context, spec: RunRecord(spec.run_index, Outcome.BENIGN))


@pytest.mark.usefixtures("instrumented_pool")
class TestBoundedSubmission:
    """The parallel backend must stream specs through a bounded window,
    not materialize O(n) futures upfront (the million-run scale target)."""

    def test_in_flight_futures_stay_bounded(self):
        from repro.core.engine import RunPlan

        n = 500
        plan = RunPlan(context=None,
                       specs=tuple(RunSpec(run_index=i) for i in range(n)))
        executor = ParallelExecutor(workers=2, chunk_size=8)
        records = [record for _, record in executor.map_tagged(
            one_cell("plan"), [("plan", spec) for spec in plan.specs])]
        pool = _InstrumentedPool.last
        assert [r.run_index for r in records] == list(range(n))
        # Chunked dispatch: ceil(n / chunk_size) futures, not n.
        expected = -(-n // executor.chunk_size)
        assert pool.submissions == expected
        assert pool.max_outstanding <= \
            2 * ParallelExecutor.IN_FLIGHT_PER_WORKER

    def test_tagged_stream_is_bounded_too(self):
        n = 300
        items = [("cell", RunSpec(run_index=i)) for i in range(n)]
        executor = ParallelExecutor(workers=3)
        results = list(executor.map_tagged(one_cell("cell"), iter(items)))
        pool = _InstrumentedPool.last
        assert [r.run_index for _, r in results] == list(range(n))
        assert {key for key, _ in results} == {"cell"}
        assert pool.max_outstanding <= \
            3 * ParallelExecutor.IN_FLIGHT_PER_WORKER


@pytest.mark.usefixtures("instrumented_pool")
class TestPoolShutdown:
    """A drained pool is shut down waiting for its workers; an abandoned
    iteration cancels the runs not yet started and returns at once."""

    ITEMS = [("cell", RunSpec(run_index=i)) for i in range(40)]

    def test_full_drain_waits(self):
        records = list(ParallelExecutor(workers=2, chunk_size=4).map_tagged(
            one_cell("cell"), self.ITEMS))
        assert len(records) == len(self.ITEMS)
        assert _InstrumentedPool.last.shutdowns == [
            {"wait": True, "cancel_futures": False}]

    def test_closed_iteration_cancels(self):
        stream = ParallelExecutor(workers=2, chunk_size=4).map_tagged(
            one_cell("cell"), self.ITEMS)
        assert next(stream)[1].run_index == 0
        assert _InstrumentedPool.last.shutdowns == []
        stream.close()
        assert _InstrumentedPool.last.shutdowns == [
            {"wait": False, "cancel_futures": True}]


@pytest.mark.usefixtures("instrumented_pool")
class TestPoolCap:
    """The pool forks at most one process per allowed CPU; chunking and
    the in-flight window still follow the requested workers."""

    N = 100
    ITEMS = [("cell", RunSpec(run_index=i)) for i in range(N)]

    def pool_for(self, monkeypatch, cpus: int):
        import os

        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        records = list(ParallelExecutor(workers=4).map_tagged(
            one_cell("cell"), self.ITEMS))
        assert records == list(SerialExecutor().map_tagged(
            one_cell("cell"), self.ITEMS))
        return _InstrumentedPool.last

    def test_two_cpus_fork_two_processes(self, monkeypatch):
        pool = self.pool_for(monkeypatch, cpus=2)
        assert pool.max_workers == 2
        # 4 workers' chunks (100 // 16 = 6 runs) and window (16 chunks).
        assert pool.submissions == -(-self.N // 6)
        assert pool.max_outstanding == 4 * ParallelExecutor.IN_FLIGHT_PER_WORKER

    def test_more_cpus_than_workers_fork_workers(self, monkeypatch):
        assert self.pool_for(monkeypatch, cpus=8).max_workers == 4

    def test_without_affinity_the_cpu_count_caps(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        list(ParallelExecutor(workers=4).map_tagged(one_cell("cell"),
                                                    self.ITEMS))
        assert _InstrumentedPool.last.max_workers == 3


class TestWorkerPlacement:
    """Pool workers start on their own CPU and are then released."""

    @pytest.fixture
    def affinity(self, monkeypatch):
        import os

        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 1, 4},
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, cpus: calls.append(set(cpus)),
                            raising=False)
        return calls

    def test_child_k_starts_on_the_kth_allowed_cpu(self, affinity,
                                                   monkeypatch):
        import multiprocessing
        from types import SimpleNamespace

        from repro.core.engine.executor import _place_worker

        for ordinal, cpu in ((1, 4), (2, 7), (3, 1), (5, 7)):
            monkeypatch.setattr(multiprocessing, "current_process",
                                lambda: SimpleNamespace(_identity=(ordinal,)))
            _place_worker()
            assert affinity[-2:] == [{cpu}, {1, 4, 7}]

    def test_the_parent_is_never_moved(self, affinity):
        from repro.core.engine.executor import _place_worker

        _place_worker()
        assert affinity == []

    @pytest.mark.skipif(not hasattr(__import__("os"), "sched_setaffinity"),
                        reason="no CPU affinity API")
    def test_real_workers_keep_the_full_mask(self):
        import multiprocessing
        import os
        from concurrent.futures import ProcessPoolExecutor

        from repro.core.engine.executor import _place_worker

        allowed = os.sched_getaffinity(0)
        with ProcessPoolExecutor(
                2, mp_context=multiprocessing.get_context("fork"),
                initializer=_place_worker) as pool:
            masks = list(pool.map(os.sched_getaffinity, [0, 0, 0]))
        assert masks == [allowed] * 3


class TestCheckpointResume:
    def test_resume_completes_exactly_the_remainder(self, tiny_nyx,
                                                    bf_config, tmp_path):
        path = str(tmp_path / "results.jsonl")
        fresh = Campaign(tiny_nyx, bf_config).run()
        # "Kill" the campaign after 2 of 6 runs ...
        Campaign(tiny_nyx, bf_config).run(n_runs=2, results_path=path)
        assert {r.run_index for r in load_records(path)} == {0, 1}
        # ... and resume: only runs 2..5 execute, the merge is identical.
        seen = []
        resumed = Campaign(tiny_nyx, bf_config).run(
            results_path=path, resume=True,
            progress=lambda i, n: seen.append((i, n)))
        assert seen == [(3, 6), (4, 6), (5, 6), (6, 6)]
        assert resumed.records == fresh.records
        assert load_records(path) == fresh.records

    def test_resume_with_nothing_left(self, tiny_nyx, bf_config, tmp_path):
        path = str(tmp_path / "results.jsonl")
        Campaign(tiny_nyx, bf_config).run(results_path=path)
        seen = []
        resumed = Campaign(tiny_nyx, bf_config).run(
            results_path=path, resume=True,
            progress=lambda i, n: seen.append((i, n)))
        assert seen == []
        assert len(resumed.records) == 6

    def test_truncated_final_line_is_dropped(self, tiny_nyx, bf_config,
                                             tmp_path):
        path = str(tmp_path / "results.jsonl")
        Campaign(tiny_nyx, bf_config).run(n_runs=3, results_path=path)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"v": 1, "run_index": 3, "outc')   # killed mid-write
        assert {r.run_index for r in load_records(path)} == {0, 1, 2}
        resumed = Campaign(tiny_nyx, bf_config).run(results_path=path,
                                                    resume=True)
        assert resumed.records == Campaign(tiny_nyx, bf_config).run().records
        # The appended records must not have merged onto the partial
        # line: the checkpoint stays fully decodable and re-resumable.
        assert load_records(path) == resumed.records
        again = Campaign(tiny_nyx, bf_config).run(results_path=path,
                                                  resume=True)
        assert again.records == resumed.records

    def test_resume_requires_results_path(self, tiny_nyx):
        campaign = MetadataCampaign(tiny_nyx, seed=5)
        with pytest.raises(FFISError):
            campaign.run(byte_stride=256, resume=True)

    def test_resume_refuses_foreign_checkpoint(self, tiny_nyx, bf_config,
                                               tmp_path):
        path = str(tmp_path / "results.jsonl")
        Campaign(tiny_nyx, bf_config).run(n_runs=2, results_path=path)
        other = CampaignConfig(fault_model="DW", n_runs=6, seed=11)
        with pytest.raises(FFISError, match="refusing to merge"):
            Campaign(tiny_nyx, other).run(results_path=path, resume=True)
        # Different stride on a metadata sweep is a different campaign too.
        meta_path = str(tmp_path / "meta.jsonl")
        MetadataCampaign(tiny_nyx, seed=5).run(byte_stride=256,
                                               results_path=meta_path)
        with pytest.raises(FFISError, match="refusing to merge"):
            MetadataCampaign(tiny_nyx, seed=5).run(byte_stride=128,
                                                   results_path=meta_path,
                                                   resume=True)

    def test_resume_refuses_differently_configured_app(self, tiny_nyx,
                                                       bf_config, tmp_path):
        """Same app *name*, different golden outputs -> different campaign."""
        from repro.apps.nyx import FieldConfig, NyxApplication

        path = str(tmp_path / "results.jsonl")
        Campaign(tiny_nyx, bf_config).run(n_runs=2, results_path=path)
        other = NyxApplication(seed=78, field_config=FieldConfig(
            shape=(16, 16, 16), n_halos=2, halo_amplitude=(800.0, 1500.0),
            halo_radius=(0.6, 0.8)), min_cells=3)
        with pytest.raises(FFISError, match="refusing to merge"):
            Campaign(other, bf_config).run(results_path=path, resume=True)

    def test_interrupted_parallel_campaign_keeps_checkpoint(self, tiny_nyx,
                                                            bf_config,
                                                            tmp_path):
        """A consumer-side failure mid-stream must surface, leave the
        checkpoint decodable, and allow a clean resume."""
        path = str(tmp_path / "results.jsonl")

        def explode(done, total):
            if done >= 2:
                raise RuntimeError("simulated interrupt")

        with pytest.raises(RuntimeError):
            Campaign(tiny_nyx, bf_config).run(results_path=path,
                                              workers=2, progress=explode)
        partial = load_records(path)
        assert len(partial) >= 2
        resumed = Campaign(tiny_nyx, bf_config).run(results_path=path,
                                                    resume=True)
        assert resumed.records == Campaign(tiny_nyx, bf_config).run().records

    def test_resume_accepts_unstamped_legacy_checkpoint(self, tiny_nyx,
                                                        bf_config, tmp_path):
        path = str(tmp_path / "results.jsonl")
        sink = JsonlSink(path)   # bare sink: no campaign stamp
        for record in Campaign(tiny_nyx, bf_config).run(n_runs=2).records:
            sink.emit_stamped(record, None)
        sink.close()
        resumed = Campaign(tiny_nyx, bf_config).run(results_path=path,
                                                    resume=True)
        assert len(resumed.records) == 6

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        good = json.dumps(record_to_json(RunRecord(0, Outcome.BENIGN)))
        with open(path, "w", encoding="utf-8") as f:
            f.write("not json\n" + good + "\n")
        with pytest.raises(FFISError):
            load_records(path)

    def test_corrupt_terminated_final_line_is_an_error(self, tmp_path):
        """A final line ending in a newline was *fully written* -- a
        decode failure there is real corruption, not a partial write,
        and must not silently shrink a resumed campaign."""
        path = str(tmp_path / "results.jsonl")
        good = json.dumps(record_to_json(RunRecord(0, Outcome.BENIGN)))
        with open(path, "w", encoding="utf-8") as f:
            f.write(good + "\n" + '{"v": 1, "run_index": 1, "outc\n')
        with pytest.raises(FFISError, match="undecodable"):
            load_records(path)

    def test_schema_invalid_terminated_final_line_is_an_error(self, tmp_path):
        """Decodable JSON missing required record keys is corrupt too."""
        path = str(tmp_path / "results.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"v": 1, "outcome": "benign"}\n')   # no run_index
        with pytest.raises(FFISError, match="undecodable"):
            load_records(path)

    def test_unterminated_final_line_is_still_forgiven(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        good = json.dumps(record_to_json(RunRecord(0, Outcome.BENIGN)))
        with open(path, "w", encoding="utf-8") as f:
            f.write(good + "\n" + '{"v": 1, "run_index": 1, "outc')
        assert [r.run_index for r in load_records(path)] == [0]

    def test_overwrite_without_resume_is_refused(self, tiny_nyx, bf_config,
                                                 tmp_path):
        """A checkpoint full of paid-for runs must never be silently
        clobbered by a missing --resume flag."""
        path = str(tmp_path / "results.jsonl")
        Campaign(tiny_nyx, bf_config).run(n_runs=4, results_path=path)
        with open(path, "rb") as f:
            before = f.read()
        with pytest.raises(FFISError, match="--resume"):
            Campaign(tiny_nyx, bf_config).run(n_runs=2, results_path=path)
        with open(path, "rb") as f:
            assert f.read() == before
        assert {r.run_index for r in load_records(path)} == {0, 1, 2, 3}

    def test_empty_file_may_be_started_in_place(self, tiny_nyx, bf_config,
                                                tmp_path):
        path = str(tmp_path / "results.jsonl")
        open(path, "w").close()
        Campaign(tiny_nyx, bf_config).run(n_runs=2, results_path=path)
        assert {r.run_index for r in load_records(path)} == {0, 1}


class TestStreamingCheckpointReads:
    """The O(1)-in-file-size contract: resuming a campaign never loads
    its checkpoint into memory.  Both binary readers -- the record
    iterator and the partial-tail trim -- must stay bounded, which this
    class enforces by shadowing ``open`` in the sink module with a
    wrapper that rejects unbounded reads."""

    _BOUND = 1 << 16

    @pytest.fixture
    def stream_only(self, monkeypatch):
        import repro.core.engine.sink as sink_mod

        real_open = open
        bound = self._BOUND

        class _StreamOnly:
            def __init__(self, f):
                self._f = f

            def read(self, size=-1):
                assert size is not None and 0 <= size <= bound, \
                    f"unbounded checkpoint read (size={size!r})"
                return self._f.read(size)

            def readlines(self, *args, **kwargs):
                raise AssertionError(
                    "checkpoint must be streamed, not readlines()d")

            def __iter__(self):
                return iter(self._f)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._f.__exit__(*exc)

            def __getattr__(self, name):
                return getattr(self._f, name)

        def guarded(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            if "b" in mode and str(path).endswith(".jsonl"):
                return _StreamOnly(f)
            return f

        monkeypatch.setattr(sink_mod, "open", guarded, raising=False)

    def test_resume_streams_the_checkpoint(self, tiny_nyx, bf_config,
                                           tmp_path, stream_only):
        path = str(tmp_path / "results.jsonl")
        Campaign(tiny_nyx, bf_config).run(n_runs=3, results_path=path)
        resumed = Campaign(tiny_nyx, bf_config).run(results_path=path,
                                                    resume=True)
        assert len(resumed.records) == 6
        assert {r.run_index for r in load_records(path)} == set(range(6))

    def test_partial_tail_trim_is_bounded(self, tiny_nyx, bf_config,
                                          tmp_path, stream_only):
        """Appending after a kill trims the partial final line with a
        bounded backwards scan, not a whole-file read."""
        path = str(tmp_path / "results.jsonl")
        Campaign(tiny_nyx, bf_config).run(n_runs=3, results_path=path)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"v": 1, "run_index": 3, "outc')
        resumed = Campaign(tiny_nyx, bf_config).run(results_path=path,
                                                    resume=True)
        assert load_records(path) == resumed.records

    def test_trim_handles_a_tail_longer_than_one_chunk(self, tmp_path):
        """A partial line bigger than the scan chunk still trims back
        to the last real newline."""
        from repro.core.engine.sink import _trim_partial_tail

        path = str(tmp_path / "results.jsonl")
        good = json.dumps(record_to_json(RunRecord(0, Outcome.BENIGN)))
        with open(path, "w", encoding="utf-8") as f:
            f.write(good + "\n" + "x" * 10_000)   # no trailing newline
        _trim_partial_tail(path)
        with open(path, "rb") as f:
            assert f.read() == (good + "\n").encode("utf-8")
        # A file that never saw a newline trims to empty.
        with open(path, "w", encoding="utf-8") as f:
            f.write("y" * 10_000)
        _trim_partial_tail(path)
        assert not open(path, "rb").read()


class TestJsonlSchema:
    def test_schema_is_stable(self):
        record = RunRecord(run_index=3, outcome=Outcome.SDC,
                           target_instance=7, phase="mAdd", detail="d",
                           byte_offset=5, bit_index=2, field_name="f",
                           fault_fired=False)
        assert record_to_json(record) == {
            "v": 1,
            "run_index": 3,
            "outcome": "sdc",
            "target_instance": 7,
            "phase": "mAdd",
            "detail": "d",
            "byte_offset": 5,
            "bit_index": 2,
            "field_name": "f",
            "fault_fired": False,
        }

    def test_round_trip(self):
        record = RunRecord(run_index=1, outcome=Outcome.CRASH,
                           target_instance=4, detail="boom")
        assert record_from_json(record_to_json(record)) == record

    def test_legacy_lines_default_fault_fired(self):
        raw = record_to_json(RunRecord(0, Outcome.BENIGN))
        del raw["fault_fired"]
        assert record_from_json(raw).fault_fired is True

    def test_newer_schema_rejected(self):
        raw = record_to_json(RunRecord(0, Outcome.BENIGN))
        raw["v"] = 99
        with pytest.raises(FFISError):
            record_from_json(raw)


class TestSinksAndStreamedTallies:
    def test_error_bars_accept_streams(self, tiny_nyx, bf_config, tmp_path):
        path = str(tmp_path / "results.jsonl")
        result = Campaign(tiny_nyx, bf_config).run(results_path=path)
        from_tally = campaign_error_bars(result.tally)
        from_records = campaign_error_bars(iter(load_records(path)))
        assert from_tally == from_records
        assert campaign_error_bars(result) == from_tally
        assert as_tally(result) == result.tally

    def test_jsonl_sink_append_mode(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        first = JsonlSink(path)
        first.emit_stamped(RunRecord(0, Outcome.BENIGN), None)
        first.close()
        second = JsonlSink(path, append=True)
        second.emit_stamped(RunRecord(1, Outcome.SDC), None)
        second.close()
        assert [r.run_index for r in load_records(path)] == [0, 1]


class TestFaultFired:
    def test_never_fired_is_flagged(self, tiny_nyx, tiny_nyx_golden):
        campaign = Campaign(tiny_nyx, CampaignConfig(fault_model="BF",
                                                     n_runs=1))
        # Instance far beyond the run's dynamic writes: the armed hook
        # can never trigger, the run is fault-free.
        record = campaign.run_once(instance=10_000, run_rng_seed=1,
                                   run_index=0, golden=tiny_nyx_golden)
        assert record.fault_fired is False
        assert record.outcome is Outcome.BENIGN
        assert "[warning: fault never fired]" in record.detail

    def test_fired_runs_are_not_flagged(self, tiny_nyx):
        result = Campaign(tiny_nyx, CampaignConfig(fault_model="DW",
                                                   n_runs=3, seed=3)).run()
        assert all(record.fault_fired for record in result.records)
        assert result.tally.not_fired == 0

    def test_tally_counts_not_fired(self):
        records = [RunRecord(0, Outcome.BENIGN, fault_fired=False),
                   RunRecord(1, Outcome.SDC)]
        tally = OutcomeTally.from_records(records)
        assert tally.not_fired == 1
        assert tally.total == 2
        assert "not-fired=1" in str(tally)

    def test_merge_folds_shard_tallies(self):
        a = OutcomeTally.from_records([RunRecord(0, Outcome.SDC)])
        b = OutcomeTally.from_records(
            [RunRecord(1, Outcome.BENIGN, fault_fired=False)])
        a.merge(b)
        assert a.total == 2
        assert a.counts[Outcome.SDC] == 1
        assert a.not_fired == 1

    def test_roundtrips_through_jsonl(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        sink = JsonlSink(path)
        sink.emit_stamped(RunRecord(0, Outcome.BENIGN, fault_fired=False),
                          None)
        sink.close()
        assert load_records(path)[0].fault_fired is False


class TestContextPicklable:
    def test_injection_context_round_trips(self, tiny_nyx, tiny_nyx_golden,
                                           bf_config):
        campaign = Campaign(tiny_nyx, bf_config)
        context = InjectionContext(tiny_nyx, tiny_nyx_golden,
                                   campaign.signature)
        clone = pickle.loads(pickle.dumps(context))
        assert clone.app.name == tiny_nyx.name
        assert clone.signature.primitive == campaign.signature.primitive


class TestCliEngineSurface:
    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.run_cli("--version")
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_campaign_workers_and_out(self, tmp_path):
        path = str(tmp_path / "cli.jsonl")
        code, text = self.run_cli("campaign", "--app", "nyx", "--model", "DW",
                                  "--runs", "4", "--seed", "9",
                                  "--workers", "2", "--out", path)
        assert code == 0
        assert "nyx/DW" in text
        assert len(load_records(path)) == 4

    def test_campaign_resume(self, tmp_path):
        path = str(tmp_path / "cli.jsonl")
        self.run_cli("campaign", "--app", "nyx", "--model", "DW",
                     "--runs", "2", "--seed", "9", "--out", path)
        code, text = self.run_cli("campaign", "--app", "nyx", "--model", "DW",
                                  "--runs", "5", "--seed", "9",
                                  "--out", path, "--resume")
        assert code == 0
        assert sorted(r.run_index for r in load_records(path)) == [0, 1, 2, 3, 4]

    def test_campaign_metadata_mode(self):
        code, text = self.run_cli("campaign", "--app", "nyx",
                                  "--metadata-mode", "random-bit",
                                  "--stride", "512")
        assert code == 0
        assert "nyx/metadata[random-bit]" in text

    def test_model_and_metadata_mode_exclusive(self):
        with pytest.raises(SystemExit):
            self.run_cli("campaign", "--app", "nyx", "--model", "BF",
                         "--metadata-mode", "random-bit")

    def test_model_or_metadata_mode_required(self):
        with pytest.raises(SystemExit):
            self.run_cli("campaign", "--app", "nyx")

    def test_resume_requires_out(self):
        with pytest.raises(SystemExit):
            self.run_cli("campaign", "--app", "nyx", "--model", "BF",
                         "--runs", "2", "--resume")

    def test_inapplicable_flags_rejected(self):
        with pytest.raises(SystemExit):   # --runs is --model-only
            self.run_cli("campaign", "--app", "nyx",
                         "--metadata-mode", "random-bit", "--runs", "50")
        with pytest.raises(SystemExit):   # --phase is --model-only
            self.run_cli("campaign", "--app", "nyx",
                         "--metadata-mode", "random-bit", "--phase", "mAdd")
        with pytest.raises(SystemExit):   # --stride is metadata-only
            self.run_cli("campaign", "--app", "nyx", "--model", "BF",
                         "--runs", "2", "--stride", "4")

    def test_run_accepts_workers(self):
        code, text = self.run_cli("run", "table1", "--workers", "1")
        assert code == 0
        assert "Bitflip" in text
