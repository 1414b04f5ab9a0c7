"""The capture-then-fork contract of the parallel executor.

Three load-bearing properties of the PR:

* **zero-pickle tasks** -- a task submission is a ``(start, stop)``
  index range whose pickle size is *independent* of how large the
  golden images in the execution payload are.  Under ``fork`` nothing
  but a registry token crosses the pipe at all; under spawn the payload
  ships exactly once per worker through the initializer.
* **start-method parity** -- fork, spawn, and serial execution produce
  identical records for the same plan.
* **adaptive chunking** -- ``chunk_size=None`` spreads tiny plans
  across the workers and caps runaway chunks on huge ones.
"""

from __future__ import annotations

import multiprocessing
import pickle
from types import SimpleNamespace

import pytest

from repro.apps.nyx import FieldConfig, NyxApplication
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine import executor as executor_module
from repro.core.engine.executor import ParallelExecutor, SerialExecutor
from repro.core.engine.plan import RunPlan
from repro.core.engine.sweep import SweepCell, SweepPlan
from repro.errors import ConfigError

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
HAVE_SPAWN = "spawn" in multiprocessing.get_all_start_methods()


def tiny_nyx() -> NyxApplication:
    return NyxApplication(seed=7, field_config=FieldConfig(
        shape=(12, 12, 12), n_halos=2, halo_amplitude=(800.0, 1500.0),
        halo_radius=(0.6, 0.8)), min_cells=3)


# -- zero-pickle task payloads ----------------------------------------------------


class _Future:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: runs tasks inline and records
    the pickled size of everything that would have crossed the pipe."""

    last = None

    def __init__(self, max_workers, mp_context=None, initializer=None,
                 initargs=()):
        self.initargs_size = len(pickle.dumps(initargs))
        initializer(*initargs)
        self.submit_sizes = []
        _RecordingPool.last = self

    def submit(self, fn, *args):
        self.submit_sizes.append(len(pickle.dumps((fn, args))))
        return _Future(fn(*args))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestTaskPayloadSize:
    def _sizes(self, monkeypatch, start_method, payload_bytes):
        """Run 40 fake specs against a context holding *payload_bytes*
        of golden-image stand-in; return the recorded pickle sizes."""
        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            _RecordingPool)
        import repro.core.engine.runner as runner
        monkeypatch.setattr(runner, "execute_run_spec",
                            lambda context, spec: spec)
        plan = SimpleNamespace(specs=list(range(40)),
                               context={"golden_image": b"x" * payload_bytes})
        executor = ParallelExecutor(workers=2, chunk_size=4,
                                    start_method=start_method)
        sweep = SweepPlan(cells=(SweepCell("plan", RunPlan(
            context=plan.context, specs=())),))
        records = [record for _, record in executor.map_tagged(
            sweep, [("plan", spec) for spec in plan.specs])]
        assert records == plan.specs
        pool = _RecordingPool.last
        return pool.initargs_size, tuple(pool.submit_sizes)

    @pytest.mark.skipif(not HAVE_FORK, reason="fork not available")
    def test_fork_tasks_are_ranges_independent_of_image_size(
            self, monkeypatch):
        init_small, tasks_small = self._sizes(monkeypatch, "fork", 10_000)
        init_big, tasks_big = self._sizes(monkeypatch, "fork", 10_000_000)
        # Identical wire traffic for a 1000x larger golden image.
        assert (init_small, tasks_small) == (init_big, tasks_big)
        # Fork ships a registry token, never the payload.
        assert init_big < 256
        assert tasks_big and max(tasks_big) < 256

    @pytest.mark.skipif(not HAVE_SPAWN, reason="spawn not available")
    def test_spawn_ships_payload_once_and_tasks_stay_ranges(
            self, monkeypatch):
        init_small, tasks_small = self._sizes(monkeypatch, "spawn", 10_000)
        init_big, tasks_big = self._sizes(monkeypatch, "spawn", 10_000_000)
        # The payload rides the initializer (once per worker), so its
        # size tracks the image...
        assert init_small > 10_000
        assert init_big > 10_000_000
        # ...but task submissions are still constant-size ranges.
        assert tasks_small == tasks_big
        assert max(tasks_big) < 256


# -- start-method parity ----------------------------------------------------------


class TestStartMethodParity:
    def plan(self):
        campaign = Campaign(tiny_nyx(), CampaignConfig(
            fault_model="DW", n_runs=6, seed=5))
        return campaign.plan()

    @pytest.mark.skipif(not (HAVE_FORK and HAVE_SPAWN),
                        reason="needs both fork and spawn")
    def test_fork_and_spawn_records_identical_to_serial(self):
        plan = self.plan()
        sweep = SweepPlan(cells=(SweepCell("plan", plan),))
        items = [("plan", spec) for spec in plan.specs]
        serial = list(SerialExecutor().map_tagged(sweep, items))
        fork = list(ParallelExecutor(
            workers=2, start_method="fork").map_tagged(sweep, items))
        spawn = list(ParallelExecutor(
            workers=2, start_method="spawn").map_tagged(sweep, items))
        assert fork == serial
        assert spawn == serial

    def test_unknown_start_method_is_config_error(self):
        with pytest.raises(ConfigError, match="not available"):
            ParallelExecutor(workers=2, start_method="no-such-method")


# -- adaptive chunking ------------------------------------------------------------


class TestAdaptiveChunking:
    def test_tiny_plans_spread_across_workers(self):
        assert ParallelExecutor(workers=2)._chunk_for(4) == 1
        assert ParallelExecutor(workers=4)._chunk_for(10) == 1

    def test_quarter_of_per_worker_share(self):
        assert ParallelExecutor(workers=2)._chunk_for(64) == 8
        assert ParallelExecutor(workers=4)._chunk_for(640) == 40

    def test_adaptive_chunk_is_capped(self):
        executor = ParallelExecutor(workers=2)
        assert executor._chunk_for(10_000) == \
            ParallelExecutor.MAX_ADAPTIVE_CHUNK_SIZE

    def test_explicit_chunk_size_wins(self):
        assert ParallelExecutor(workers=2, chunk_size=3)._chunk_for(10_000) == 3

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigError, match="chunk_size"):
            ParallelExecutor(workers=2, chunk_size=0)


# -- the config knob --------------------------------------------------------------


class TestChunkSizeConfig:
    def test_default_is_adaptive(self):
        assert CampaignConfig().chunk_size is None

    def test_from_dict_accepts_chunk_size(self):
        config = CampaignConfig.from_dict(
            {"fault_model": "DW", "workers": 2, "chunk_size": 16})
        assert config.chunk_size == 16

    def test_invalid_chunk_size_is_config_error(self):
        with pytest.raises(ConfigError, match="chunk_size"):
            CampaignConfig(chunk_size=0)
