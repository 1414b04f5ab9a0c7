"""The distributed engine: leases, the file queue, shard merge, fleets.

The load-bearing contract is **byte identity**: a campaign distributed
over any number of workers -- including workers SIGKILLed mid-lease --
must merge back into a checkpoint byte-identical to ``workers=1``
serial execution.  Everything here triangulates that contract: unit
tests for the lease/queue state machine, a hypothesis property test
that the shard merger deduplicates arbitrary re-execution histories,
and end-to-end fleets (in-process, forked, killed, resumed, CLI-driven)
whole-file compared against serial checkpoints.
"""

import filecmp
import io
import json
import multiprocessing
import os
import signal
import threading
import time
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine import (
    ProfileGoldenCache,
    RunPlan,
    RunSpec,
    SweepCell,
    SweepPlan,
    execute_sweep,
    iter_stamped_records,
)
from repro.core.engine.dist import (
    ChaosCrash,
    Claim,
    Coordinator,
    FaultSpec,
    FaultyIO,
    FileQueue,
    FleetExecutor,
    Lease,
    default_lease_runs,
    merge_shards,
    plan_manifest,
    run_worker,
    shard_plan,
    verify_manifest,
)
from repro.core.engine.runner import execute_run_spec
from repro.core.engine.sink import JsonlSink
from repro.core.outcomes import Outcome, RunRecord
from repro.errors import ConfigError, FFISError
from repro.study import Study, StudySpec
from repro.study.spec import ModelSpec, TargetSpec

from tests.test_scenario_determinism import ToyApp
from tests.test_study_run import (
    FIGURE7_FIXTURE,
    fixture_montage,
    fixture_nyx,
)


def toy_plan(n_runs=6, seed=7) -> SweepPlan:
    """Two real ToyApp campaigns fused into one sweep."""
    app = ToyApp()
    cache = ProfileGoldenCache()
    cells = []
    for key, model in (("BF", "BF"), ("DW", "DW")):
        campaign = Campaign(app, CampaignConfig(
            fault_model=model, n_runs=n_runs, seed=seed))
        cells.append(campaign.plan_cell(key, cache))
    return SweepPlan(cells=tuple(cells))


def fleet_sweep(plan, root, results_path=None, *, resume=False, **knobs):
    """``execute_sweep`` on a lease-queue fleet at *root*; *resume*
    resumes both the checkpoint and the queue."""
    return execute_sweep(plan, results_path=results_path, resume=resume,
                         executor=FleetExecutor(root, resume=resume, **knobs))


def synthetic_plan(sizes: Tuple[int, ...]) -> SweepPlan:
    """Executable-looking plans for queue/merge unit tests (the context
    is never touched there, so ``None`` keeps them cheap)."""
    cells = []
    for i, n in enumerate(sizes):
        key = chr(ord("A") + i)
        cells.append(SweepCell(
            key=key,
            plan=RunPlan(context=None,
                         specs=tuple(RunSpec(run_index=j) for j in range(n))),
            campaign_id=f"camp-{key}"))
    return SweepPlan(cells=tuple(cells))


def synth_record(key: str, index: int) -> RunRecord:
    """Deterministic in ``(cell, run index)``, like real runs."""
    return RunRecord(run_index=index, outcome=Outcome.BENIGN,
                     detail=f"{key}:{index}")


def settle(queue: FileQueue, claim: Claim) -> None:
    """Settle *claim* the way a worker does: publish a segment holding
    the records of the lease's range (synthetic-plan positions are run
    indices), then release the claim."""
    lease = claim.lease
    path = queue.segment_path(claim.worker_id, lease.lease_id)
    sink = JsonlSink(path + ".tmp")
    try:
        for index in range(lease.start, lease.stop):
            sink.emit_stamped(synth_record(lease.cell_key, index),
                              lease.campaign_id)
    finally:
        sink.close()
    queue.publish_segment(path)
    queue.complete(claim)


class TestLease:
    def test_shard_plan_cuts_contiguous_ranges_in_plan_order(self):
        plan = synthetic_plan((5, 3))
        leases = shard_plan(plan, 2)
        assert [(le.cell_key, le.start, le.stop) for le in leases] == [
            ("A", 0, 2), ("A", 2, 4), ("A", 4, 5),
            ("B", 0, 2), ("B", 2, 3)]
        assert [le.lease_id for le in leases] == [
            f"lease-{i:05d}" for i in range(5)]
        assert all(le.campaign_id == f"camp-{le.cell_key}" for le in leases)
        assert sum(len(le) for le in leases) == len(plan)

    def test_lease_runs_must_be_positive(self):
        with pytest.raises(FFISError, match="lease_runs"):
            shard_plan(synthetic_plan((3,)), 0)

    def test_empty_range_rejected(self):
        with pytest.raises(FFISError, match="empty or negative"):
            Lease(lease_id="x", cell_key="A", campaign_id=None,
                  start=2, stop=2)

    def test_round_trip_and_reassignment(self):
        lease = Lease(lease_id="lease-00003", cell_key="A",
                      campaign_id="camp-A", start=4, stop=6)
        again = Lease.from_dict(lease.to_dict())
        assert again == lease
        bumped = again.reassigned()
        assert bumped.attempt == 1
        assert (bumped.lease_id, bumped.start, bumped.stop) == \
            (lease.lease_id, lease.start, lease.stop)

    def test_malformed_payload_is_an_error(self):
        with pytest.raises(FFISError, match="malformed lease"):
            Lease.from_dict({"lease_id": "x", "start": 0})

    def test_default_lease_runs_scales_with_fleet(self):
        plan = synthetic_plan((64, 64))
        assert default_lease_runs(plan, workers=2) == 16
        assert default_lease_runs(plan, workers=64) >= 1
        huge = synthetic_plan((100_000,))
        from repro.core.engine.executor import ParallelExecutor

        assert default_lease_runs(huge, workers=2) \
            == ParallelExecutor.MAX_ADAPTIVE_CHUNK_SIZE

    def test_manifest_pins_plan_identity(self):
        plan = synthetic_plan((4, 2))
        manifest = plan_manifest(plan)
        verify_manifest(plan, manifest, where="q")  # no raise
        with pytest.raises(FFISError, match="different plan"):
            verify_manifest(synthetic_plan((4, 3)), manifest, where="q")
        with pytest.raises(FFISError, match="protocol"):
            verify_manifest(plan, {**manifest, "protocol": 99}, where="q")


class TestFileQueue:
    def queue(self, tmp_path, sizes=(4, 2), lease_runs=2):
        plan = synthetic_plan(sizes)
        leases = shard_plan(plan, lease_runs)
        return plan, leases, FileQueue.create(
            str(tmp_path / "q"), plan, leases)

    def test_create_posts_every_lease(self, tmp_path):
        _, leases, queue = self.queue(tmp_path)
        counts = queue.counts()
        assert counts == {"pending": len(leases), "leased": 0, "done": 0,
                          "quarantined": 0, "total": len(leases)}
        assert not queue.all_done() and queue.finished() is False
        assert sorted(os.listdir(queue.root)) == [
            "leased", "manifest.json", "pending", "quarantine", "shards"]

    def test_resume_refuses_a_v2_queue(self, tmp_path):
        """A v2 queue settled its leases through done/ records this
        protocol no longer reads: resuming one is refused, not
        misread."""
        plan, leases, queue = self.queue(tmp_path)
        with open(queue.manifest_path, "w", encoding="utf-8") as f:
            json.dump(dict(queue.manifest, protocol=2), f)
        with pytest.raises(FFISError, match="lease protocol 2"):
            FileQueue.create(queue.root, plan, leases, reuse=True)

    def test_root_without_manifest_is_not_a_queue(self, tmp_path):
        with pytest.raises(FFISError, match="not a lease queue"):
            FileQueue(str(tmp_path))

    def test_existing_queue_refused_without_reuse(self, tmp_path):
        plan, leases, _ = self.queue(tmp_path)
        with pytest.raises(FFISError, match="already holds a lease queue"):
            FileQueue.create(str(tmp_path / "q"), plan, leases)

    def test_reuse_refuses_a_different_plan(self, tmp_path):
        _, _, _ = self.queue(tmp_path)
        other = synthetic_plan((9,))
        with pytest.raises(FFISError, match="different plan"):
            FileQueue.create(str(tmp_path / "q"), other,
                             shard_plan(other, 2), reuse=True)

    def test_claims_drain_in_posted_order(self, tmp_path):
        _, leases, queue = self.queue(tmp_path)
        seen = []
        while True:
            claim = queue.claim("w0")
            if claim is None:
                break
            seen.append(claim.lease.lease_id)
            settle(queue, claim)
        assert seen == [lease.lease_id for lease in leases]
        assert queue.all_done()
        assert queue.counts()["pending"] == queue.counts()["leased"] == 0

    def test_bad_worker_ids_rejected(self, tmp_path):
        _, _, queue = self.queue(tmp_path)
        for bad in ("", "a--b", "a/b", "a b"):
            with pytest.raises(FFISError, match="worker id"):
                queue.claim(bad)

    def test_mismatched_lease_error_names_worker_and_attempt(self, tmp_path):
        """The out-of-range refusal carries worker id, lease id, and
        attempt count -- enough context to start a postmortem from the
        worker's log line alone."""
        plan, leases, queue = self.queue(tmp_path, sizes=(2,), lease_runs=2)
        bad = Lease(lease_id=leases[0].lease_id,
                    cell_key=leases[0].cell_key,
                    campaign_id=leases[0].campaign_id,
                    start=0, stop=999, attempt=3)
        with open(os.path.join(queue.pending_dir, f"{bad.lease_id}.json"),
                  "w", encoding="utf-8") as f:
            json.dump(bad.to_dict(), f)
        with pytest.raises(FFISError) as err:
            run_worker(str(tmp_path / "q"), plan, "w9", max_idle_polls=2)
        message = str(err.value)
        assert "worker w9" in message
        assert bad.lease_id in message
        assert "attempt 3" in message

    def test_malformed_claim_is_quarantined_not_fatal(self, tmp_path):
        """A corrupt lease payload no longer poisons the claim loop: the
        damaged file moves to quarantine/ with a warning and the worker
        claims the next lease instead of crashing."""
        _, leases, queue = self.queue(tmp_path)
        victim = leases[0].lease_id
        with open(os.path.join(queue.pending_dir, f"{victim}.json"),
                  "w", encoding="utf-8") as f:
            f.write("not json {")
        with pytest.warns(UserWarning, match="unparseable"):
            claim = queue.claim("w7")
        assert claim is not None
        assert claim.lease.lease_id == leases[1].lease_id
        assert queue.counts()["quarantined"] == 1
        (diag,) = queue.quarantined()
        assert diag["lease_id"] == victim
        assert "unparseable" in diag["reason"]

    def test_two_workers_race_one_lease(self, tmp_path):
        plan = synthetic_plan((2,))
        leases = shard_plan(plan, 2)
        root = str(tmp_path / "q")
        FileQueue.create(root, plan, leases)
        a, b = FileQueue(root), FileQueue(root)
        first, second = a.claim("wa"), b.claim("wb")
        assert first is not None and second is None
        assert first.lease == leases[0]

    def test_expiry_reassigns_with_attempt_bumped(self, tmp_path):
        _, _, queue = self.queue(tmp_path, sizes=(2,), lease_runs=2)
        claim = queue.claim("dead")
        assert queue.expire_stale(3600.0) == []  # fresh heartbeat
        (requeued,) = queue.expire_stale(0.0, now=time.time() + 10)
        assert requeued.attempt == 1
        again = queue.claim("alive")
        assert again.lease == requeued
        settle(queue, again)
        assert queue.all_done()

    def test_published_segment_is_authoritative_over_stale_claims(
            self, tmp_path):
        """SIGKILL between publishing the segment and releasing the
        claim: the segment exists, the claim lingers -- expiry must
        clean up, not re-execute."""
        _, _, queue = self.queue(tmp_path, sizes=(2,), lease_runs=2)
        claim = queue.claim("w0")
        settle(queue, claim)
        # Resurrect the claim file as if the unlink never happened.
        with open(claim.path, "w", encoding="utf-8") as f:
            json.dump(claim.lease.to_dict(), f)
        assert queue.expire_stale(0.0, now=time.time() + 10) == []
        assert queue.counts()["leased"] == 0
        assert queue.all_done()

    def test_claim_skips_and_cleans_completed_leases(self, tmp_path):
        """A publish that raced an expiry re-post leaves a stale pending
        copy; claiming it again would re-execute paid-for work."""
        _, leases, queue = self.queue(tmp_path, sizes=(2,), lease_runs=2)
        claim = queue.claim("w0")
        settle(queue, claim)
        queue._post(leases[0])  # the racing re-post
        assert queue.claim("w1") is None
        assert queue.counts()["pending"] == 0

    def test_reuse_requeues_orphans_and_clears_finished(self, tmp_path):
        plan, leases, queue = self.queue(tmp_path, sizes=(4,), lease_runs=2)
        done = queue.claim("w0")
        settle(queue, done)
        queue.claim("w0")          # orphaned: never completed
        queue.mark_finished()
        resumed = FileQueue.create(str(tmp_path / "q"), plan, leases,
                                   reuse=True)
        assert not resumed.finished()
        counts = resumed.counts()
        assert counts["done"] == 1 and counts["leased"] == 0
        assert counts["pending"] == 1
        orphan = resumed.claim("w1")
        assert orphan.lease.attempt == 1


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_merge_dedupes_any_reexecution_history(tmp_path_factory, data):
    """Property: however leases were re-executed and sharded, the merge
    keeps exactly one record per planned ``(campaign, run index)`` pair
    and counts every dropped duplicate."""
    tmp = tmp_path_factory.mktemp("merge")
    sizes = tuple(data.draw(
        st.lists(st.integers(1, 5), min_size=1, max_size=3),
        label="cell sizes"))
    plan = synthetic_plan(sizes)
    pairs = [(cell.key, spec.run_index)
             for cell in plan.cells for spec in cell.plan.specs]
    extras = data.draw(st.lists(st.sampled_from(pairs), max_size=15),
                       label="re-executions")
    events = pairs + extras
    n_shards = data.draw(st.integers(1, 4), label="shards")
    homes = data.draw(st.lists(st.integers(0, n_shards - 1),
                               min_size=len(events), max_size=len(events)),
                      label="shard assignment")
    order = data.draw(st.permutations(range(len(events))), label="order")

    stamps = {cell.key: cell.campaign_id for cell in plan.cells}
    sinks = [JsonlSink(str(tmp / f"shard-w{i}.jsonl"))
             for i in range(n_shards)]
    try:
        for event in order:
            key, index = events[event]
            sinks[homes[event]].emit_stamped(synth_record(key, index),
                                             stamps[key])
    finally:
        for sink in sinks:
            sink.close()

    merged, stats = merge_shards(plan, [sink.path for sink in sinks])
    assert stats.duplicates == len(extras)
    assert stats.total == len(pairs)
    for cell in plan.cells:
        records = merged[cell.key]
        assert [r.run_index for r in records] == \
            [spec.run_index for spec in cell.plan.specs]
        assert records == [synth_record(cell.key, r.run_index)
                           for r in records]


class TestMerge:
    def shards(self, tmp_path, plan, drop=()):
        stamps = {cell.key: cell.campaign_id for cell in plan.cells}
        path = str(tmp_path / "shard-w0.jsonl")
        sink = JsonlSink(path)
        try:
            for cell in plan.cells:
                for spec in cell.plan.specs:
                    if (cell.key, spec.run_index) in drop:
                        continue
                    sink.emit_stamped(synth_record(cell.key, spec.run_index),
                                      stamps[cell.key])
        finally:
            sink.close()
        return [path]

    def test_missing_pair_is_a_hole_not_a_shrunken_campaign(self, tmp_path):
        plan = synthetic_plan((3, 2))
        paths = self.shards(tmp_path, plan, drop={("B", 1)})
        with pytest.raises(FFISError, match="missing 1 planned runs: B:1"):
            merge_shards(plan, paths)

    def test_hole_error_names_the_shards_read(self, tmp_path):
        """Shard filenames carry worker ids; the hole report must list
        them so 'worker never ran' and 'lease lost' are tellable apart."""
        plan = synthetic_plan((3, 2))
        paths = self.shards(tmp_path, plan, drop={("B", 1)})
        with pytest.raises(FFISError) as err:
            merge_shards(plan, paths)
        message = str(err.value)
        assert "shards read:" in message
        assert os.path.basename(paths[0]) in message

    def test_stray_campaign_stamp_refused(self, tmp_path):
        plan = synthetic_plan((2,))
        paths = self.shards(tmp_path, plan)
        sink = JsonlSink(paths[0], append=True)
        try:
            sink.emit_stamped(synth_record("Z", 0), "camp-Z")
        finally:
            sink.close()
        with pytest.raises(FFISError, match="unrelated science"):
            merge_shards(plan, paths)

    def test_multicell_shards_need_stamps(self, tmp_path):
        plan = SweepPlan(cells=(
            SweepCell(key="A", plan=RunPlan(context=None,
                                            specs=(RunSpec(run_index=0),))),
            SweepCell(key="B", plan=RunPlan(context=None,
                                            specs=(RunSpec(run_index=0),)),
                      campaign_id="camp-B")))
        with pytest.raises(FFISError, match="no campaign_id"):
            merge_shards(plan, [])


class TestDistributedByteIdentity:
    """The tentpole contract, end to end on real ToyApp campaigns."""

    def serial(self, tmp_path, plan):
        path = str(tmp_path / "serial.jsonl")
        result = execute_sweep(plan, results_path=path)
        return path, result

    def test_in_process_worker_matches_serial(self, tmp_path):
        plan = toy_plan()
        serial_path, serial = self.serial(tmp_path, plan)
        root = str(tmp_path / "queue")
        coordinator = Coordinator(plan, root, lease_runs=2)
        coordinator.post()
        stats = run_worker(root, plan, "solo", max_idle_polls=3)
        assert stats.runs == len(plan) and stats.retries == 0
        dist_path = str(tmp_path / "dist.jsonl")
        merged, merge_stats = coordinator.finish()
        fleet_sweep(plan, root, dist_path, resume=True, workers=0,
                    lease_runs=2)
        assert filecmp.cmp(serial_path, dist_path, shallow=False)
        assert merged == serial.records
        assert merge_stats.duplicates == 0
        assert merge_stats.total == len(plan)

    def test_fleet_sweep_merges_once(self, tmp_path, monkeypatch):
        """One merge feeds both the sweep's records and its checkpoint,
        which equals the serial one."""
        import repro.core.engine.dist.coordinator as coordinator_module
        import repro.core.engine.dist.merge as merge_module

        plan = toy_plan()
        serial_path, _ = self.serial(tmp_path, plan)
        root = str(tmp_path / "queue")
        coordinator = Coordinator(plan, root, lease_runs=2)
        coordinator.post()
        run_worker(root, plan, "solo", max_idle_polls=3)
        want_records, _ = merge_shards(plan, coordinator.queue.shard_paths())

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return merge_shards(*args, **kwargs)

        monkeypatch.setattr(coordinator_module, "merge_shards", counting)
        monkeypatch.setattr(merge_module, "merge_shards", counting)
        got_path = str(tmp_path / "got.jsonl")
        result = fleet_sweep(plan, root, got_path, resume=True, workers=0,
                             lease_runs=2)
        assert len(calls) == 1
        assert result.records == want_records
        assert filecmp.cmp(serial_path, got_path, shallow=False)

    def test_forked_fleet_matches_serial(self, tmp_path):
        plan = toy_plan()
        serial_path, serial = self.serial(tmp_path, plan)
        dist_path = str(tmp_path / "dist.jsonl")
        result = fleet_sweep(plan, str(tmp_path / "queue"), dist_path,
                             workers=2, lease_runs=2, timeout=120.0)
        assert filecmp.cmp(serial_path, dist_path, shallow=False)
        assert result.records == serial.records
        assert result.executed == len(plan)

    def test_forked_worker_is_placed_before_it_drains(self, monkeypatch):
        """The fleet's fork target moves the worker to its own CPU, as
        pool workers are moved, and only then drains the queue."""
        import repro.core.engine.dist.coordinator as coordinator_module

        calls = []
        monkeypatch.setattr(coordinator_module, "_place_worker",
                            lambda: calls.append("place"))
        monkeypatch.setattr(coordinator_module, "run_worker",
                            lambda *args, **kwargs: calls.append(
                                ("drain", args, kwargs)))
        plan = synthetic_plan((2,))
        coordinator_module._worker_entry("root", plan, "w00", 0.05,
                                         None, None)
        assert calls == ["place",
                         ("drain", ("root", plan, "w00"),
                          {"poll_interval": 0.05, "io": None,
                           "retry": None})]

    def test_distributed_refuses_to_clobber_results(self, tmp_path):
        plan = toy_plan(n_runs=2)
        occupied = tmp_path / "dist.jsonl"
        occupied.write_text("occupied\n", encoding="utf-8")
        with pytest.raises(FFISError, match="--resume"):
            fleet_sweep(plan, str(tmp_path / "queue"), str(occupied))
        assert occupied.read_text(encoding="utf-8") == "occupied\n"

    def test_resume_settled_queue_executes_nothing(self, tmp_path):
        plan = toy_plan()
        serial_path, _ = self.serial(tmp_path, plan)
        root = str(tmp_path / "queue")
        coordinator = Coordinator(plan, root, lease_runs=2)
        coordinator.post()
        run_worker(root, plan, "first", max_idle_polls=3)
        # Coordinator "crashed" before finish(); a resumed campaign
        # finds every lease settled and merges without re-executing.
        dist_path = str(tmp_path / "dist.jsonl")
        result = fleet_sweep(plan, root, dist_path, resume=True, workers=2,
                             lease_runs=2, timeout=120.0)
        assert filecmp.cmp(serial_path, dist_path, shallow=False)
        assert result.executed == len(plan)


class SlowToy(ToyApp):
    """ToyApp with a classify() slow enough to SIGKILL mid-lease.

    ``classify`` runs for every injected run and is never replay-
    skipped, so the sleep guarantees a kill window without changing a
    single record byte."""

    def classify(self, golden, mp):
        time.sleep(0.2)
        return super().classify(golden, mp)


def slow_plan(n_runs=4, seed=7) -> SweepPlan:
    app = SlowToy()
    cache = ProfileGoldenCache()
    cells = []
    for key, model in (("BF", "BF"), ("DW", "DW")):
        campaign = Campaign(app, CampaignConfig(
            fault_model=model, n_runs=n_runs, seed=seed))
        cells.append(campaign.plan_cell(key, cache))
    return SweepPlan(cells=tuple(cells))


class TestWorkerDeath:
    def test_sigkill_mid_lease_loses_and_duplicates_nothing(self, tmp_path):
        """The ISSUE's acceptance scenario: SIGKILL a worker mid-lease,
        expire its claim, drain with a peer, and the merged checkpoint
        is byte-identical to serial -- every pair exactly once."""
        plan = slow_plan()
        serial_path = str(tmp_path / "serial.jsonl")
        execute_sweep(plan, results_path=serial_path)

        root = str(tmp_path / "queue")
        coordinator = Coordinator(plan, root, lease_runs=2, lease_ttl=1000.0)
        queue = coordinator.post()
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=run_worker, args=(root, plan, "wa"),
                           kwargs={"poll_interval": 0.02})
        proc.start()

        def published_by_wa():
            try:
                names = os.listdir(queue.shards_dir)
            except FileNotFoundError:
                return []
            return [n for n in names
                    if n.endswith(".jsonl") and "--wa" in n]

        deadline = time.time() + 60
        while time.time() < deadline:
            if published_by_wa():
                break
            time.sleep(0.01)
        assert published_by_wa(), "worker wa never published a segment"
        os.kill(proc.pid, signal.SIGKILL)
        proc.join()

        wa_lines = 0
        for name in published_by_wa():
            with open(os.path.join(queue.shards_dir, name), "rb") as f:
                wa_lines += f.read().count(b"\n")

        requeued = queue.expire_stale(0.0, now=time.time() + 10)
        # A claim left behind is either unfinished (re-posted) or its
        # segment is already published (dropped, never re-posted).
        assert queue.counts()["leased"] == 0
        published = {name[len("seg-"):].split("--")[0]
                     for name in published_by_wa()}
        assert not published & {lease.lease_id for lease in requeued}

        stats = run_worker(root, plan, "wb", poll_interval=0.01,
                           max_idle_polls=50)
        assert stats.runs >= len(plan) - wa_lines
        dist_path = str(tmp_path / "dist.jsonl")
        _, merge_stats = coordinator.finish()
        fleet_sweep(plan, root, dist_path, resume=True, workers=0,
                    lease_runs=2)
        assert filecmp.cmp(serial_path, dist_path, shallow=False)
        # Zero lost: byte identity already proves it.  Zero duplicated:
        # segments publish atomically per completed lease and the
        # publish settles the lease, so the dead worker's in-flight tmp
        # segment never enters the merge, expiry never re-posts a
        # published lease, and the leases partition the plan disjointly.
        assert merge_stats.duplicates == 0
        pairs = [(stamp, record.run_index)
                 for _, stamp, record in iter_stamped_records(dist_path)]
        assert len(pairs) == len(set(pairs)) == len(plan)

    def test_supervisor_respawns_killed_workers(self, tmp_path):
        """The fleet survives losing a worker mid-campaign:
        the supervisor respawns, expiry reassigns, bytes still match."""
        plan = slow_plan(n_runs=3)
        serial_path = str(tmp_path / "serial.jsonl")
        execute_sweep(plan, results_path=serial_path)
        root = str(tmp_path / "queue")
        killer = threading.Thread(
            target=_kill_one_worker_once, args=(root,), daemon=True)
        killer.start()
        dist_path = str(tmp_path / "dist.jsonl")
        result = fleet_sweep(plan, root, dist_path, workers=2, lease_runs=2,
                             lease_ttl=1.0, poll_interval=0.02,
                             timeout=120.0)
        killer.join(timeout=60)
        assert filecmp.cmp(serial_path, dist_path, shallow=False)
        assert result.executed == len(plan)


class TestSettlePoint:
    """Publishing a lease's segment is the one step that settles it."""

    def serial(self, tmp_path, plan):
        path = str(tmp_path / "serial.jsonl")
        execute_sweep(plan, results_path=path)
        return path

    def test_crash_right_after_publish_duplicates_nothing(self, tmp_path):
        """Rename-then-crash on the first segment publish: the worker
        dies holding the claim of a lease whose segment is published.
        Expiry drops that claim instead of re-posting it, so a peer's
        drain re-executes nothing."""
        plan = toy_plan()
        serial_path = self.serial(tmp_path, plan)
        root = str(tmp_path / "queue")
        coordinator = Coordinator(plan, root, lease_runs=2)
        queue = coordinator.post()
        io_ = FaultyIO(3, [FaultSpec(site="replace", kind="crash",
                                     match="seg-", max_faults=1)])
        with pytest.raises(ChaosCrash):
            run_worker(root, plan, "wa", io=io_, max_idle_polls=3)
        assert [e.kind for e in io_.events] == ["crash"]
        assert queue.counts()["leased"] == 1
        assert queue.expire_stale(0.0, now=time.time() + 10) == []
        assert queue.counts()["leased"] == 0
        run_worker(root, plan, "wb", max_idle_polls=3)
        dist_path = str(tmp_path / "dist.jsonl")
        _, stats = coordinator.finish()
        fleet_sweep(plan, root, dist_path, resume=True, workers=0,
                    lease_runs=2)
        assert stats.duplicates == 0
        assert filecmp.cmp(serial_path, dist_path, shallow=False)

    def test_live_worker_past_its_ttl_is_the_one_duplicate_source(
            self, tmp_path):
        """A worker that outruns its TTL keeps running after expiry
        re-posts its lease; a peer re-executes the lease, and the late
        segment duplicates exactly that lease's runs -- which the merge
        drops, byte-identically."""
        plan = toy_plan()
        serial_path = self.serial(tmp_path, plan)
        root = str(tmp_path / "queue")
        coordinator = Coordinator(plan, root, lease_runs=2)
        queue = coordinator.post()
        slow = queue.claim("slow")
        (requeued,) = queue.expire_stale(0.0, now=time.time() + 10)
        assert requeued.lease_id == slow.lease.lease_id
        run_worker(root, plan, "peer", max_idle_polls=3)
        assert queue.all_done()

        lease = slow.lease
        cell = {cell.key: cell for cell in plan.cells}[lease.cell_key]
        path = queue.segment_path("slow", lease.lease_id)
        sink = JsonlSink(path + ".tmp")
        try:
            for spec in cell.plan.specs[lease.start:lease.stop]:
                sink.emit_stamped(execute_run_spec(cell.plan.context, spec),
                                  lease.campaign_id)
        finally:
            sink.close()
        queue.publish_segment(path)
        queue.complete(slow)

        dist_path = str(tmp_path / "dist.jsonl")
        _, stats = coordinator.finish()
        fleet_sweep(plan, root, dist_path, resume=True, workers=0,
                    lease_runs=2)
        assert stats.duplicates == len(lease)
        assert filecmp.cmp(serial_path, dist_path, shallow=False)


def _kill_one_worker_once(root: str) -> None:
    """Wait until some worker has written a shard line, then SIGKILL
    one live worker process.  Every child of the test process during
    a fleet sweep is a campaign worker, so any live child is
    a valid victim -- the supervisor must respawn it and expiry must
    reassign whatever it held."""
    deadline = time.time() + 60
    shards = os.path.join(root, "shards")
    while time.time() < deadline:
        try:
            if any(os.path.getsize(os.path.join(shards, name))
                   for name in os.listdir(shards)):
                break
        except OSError:
            pass
        time.sleep(0.01)
    else:
        return
    for proc in multiprocessing.active_children():
        if proc.is_alive() and proc.pid is not None:
            os.kill(proc.pid, signal.SIGKILL)
            return


class TestStudyDistributed:
    def toy_spec(self, **knobs) -> StudySpec:
        return StudySpec(
            name="dist-toy",
            targets=(TargetSpec(app="TOY", label="TOY"),
                     TargetSpec(app="ALT", label="ALT")),
            models=(ModelSpec(model="BF"), ModelSpec(model="DW")),
            runs=3, seed=6, **knobs)

    def apps(self):
        return {"TOY": ToyApp(), "ALT": ToyApp(payload_seed=9)}

    def test_hosts_knob_matches_serial_checkpoint(self, tmp_path):
        serial_path = str(tmp_path / "serial.jsonl")
        dist_path = str(tmp_path / "dist.jsonl")
        serial = Study(self.toy_spec(), apps=self.apps()) \
            .run(results_path=serial_path)
        dist = Study(self.toy_spec(), apps=self.apps()) \
            .run(hosts=2, results_path=dist_path,
                 queue_root=str(tmp_path / "queue"))
        assert filecmp.cmp(serial_path, dist_path, shallow=False)
        assert dist.keys() == serial.keys()
        for key in serial.keys():
            assert dist.cell(key) == serial.cell(key)
        assert dist.executed == len(dist)

    def test_throwaway_queue_is_removed_on_return(self, tmp_path,
                                                  monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        plan = Study(self.toy_spec(), apps=self.apps()).plan()
        plan.execute(hosts=2)
        assert not [name for name in os.listdir(tmp_path)
                    if name.startswith("repro-queue-")]

    def test_progress_counts_runs_up_to_the_total(self, tmp_path):
        """As with every backend, progress fires once per emitted
        record."""
        plan = Study(self.toy_spec(), apps=self.apps()).plan()
        calls = []
        plan.execute(hosts=2, queue_root=str(tmp_path / "queue"),
                     progress=lambda done, total: calls.append((done, total)))
        total = len(plan)
        assert calls == [(done, total) for done in range(1, total + 1)]

    def test_knobs_that_do_not_apply_are_rejected(self, tmp_path):
        """queue_root and quarantine_after need hosts > 1 and workers
        does not apply with it: each raises instead of being ignored,
        before any queue directory exists."""
        plan = Study(self.toy_spec(), apps=self.apps()).plan()
        queue = str(tmp_path / "queue")
        for knobs, named in (
                ({"queue_root": queue}, "queue_root"),
                ({"hosts": 1, "queue_root": queue}, "queue_root"),
                ({"quarantine_after": 2}, "quarantine_after"),
                ({"hosts": 2, "workers": 4, "queue_root": queue}, "workers")):
            with pytest.raises(ConfigError, match=named):
                plan.execute(**knobs)
        assert not os.path.exists(queue)

    def test_resume_without_queue_root_continues_the_checkpoint(
            self, tmp_path):
        """A fleet resume on a throwaway queue continues the checkpoint:
        only the missing runs are emitted, and the bytes are serial."""
        serial_path = str(tmp_path / "serial.jsonl")
        Study(self.toy_spec(), apps=self.apps()) \
            .run(results_path=serial_path)
        with open(serial_path, "rb") as f:
            lines = f.read().splitlines(keepends=True)
        dist_path = tmp_path / "dist.jsonl"
        dist_path.write_bytes(b"".join(lines[:5]))
        plan = Study(self.toy_spec(), apps=self.apps()).plan()
        result = plan.execute(hosts=2, results_path=str(dist_path),
                              resume=True)
        assert result.executed == len(plan) - 5
        assert filecmp.cmp(serial_path, str(dist_path), shallow=False)

    def test_figure7_distributed_matches_serial_fixture(self, tmp_path):
        """The ISSUE's acceptance criterion: a 2-worker distributed
        figure7 run is byte-identical to the committed serial fixture."""
        from repro.study.registry import figure7_spec

        spec = figure7_spec(n_runs=2, seed=4, app_labels=("NYX", "MT"))
        plan = Study(spec, apps={"nyx": fixture_nyx(),
                                 "montage": fixture_montage()}).plan()
        path = str(tmp_path / "figure7-dist.jsonl")
        plan.execute(hosts=2, results_path=path,
                     queue_root=str(tmp_path / "queue"))
        assert filecmp.cmp(FIGURE7_FIXTURE, path, shallow=False)


class TestServeAndWorkerCli:
    """The cross-host surface: `repro study serve` + `repro worker`."""

    @pytest.fixture
    def toy_registry(self, monkeypatch):
        import repro.study.apps as study_apps

        monkeypatch.setitem(study_apps._FACTORIES, "toy", ToyApp)

    def spec_file(self, tmp_path) -> str:
        spec = StudySpec(
            name="cli-dist",
            targets=(TargetSpec(app="toy", label="TOY"),),
            models=(ModelSpec(model="BF"), ModelSpec(model="DW")),
            runs=3, seed=5)
        path = tmp_path / "cli-dist.toml"
        path.write_text(spec.to_toml(), encoding="utf-8")
        return str(path)

    def test_serve_then_worker_round_trip(self, tmp_path, toy_registry):
        spec_path = self.spec_file(tmp_path)
        serial_path = str(tmp_path / "serial.jsonl")
        from repro.study.spec import load_spec

        Study(load_spec(spec_path)).run(results_path=serial_path)

        queue_root = str(tmp_path / "queue")
        out_path = str(tmp_path / "dist.jsonl")
        serve_out = io.StringIO()
        serve_rc = []

        def _serve():
            serve_rc.append(main(
                ["study", "serve", "--file", spec_path, "--queue",
                 queue_root, "--out", out_path, "--timeout", "120",
                 "--lease-runs", "2"], out=serve_out))

        coordinator = threading.Thread(target=_serve)
        coordinator.start()
        deadline = time.time() + 60
        manifest = os.path.join(queue_root, "manifest.json")
        while time.time() < deadline and not os.path.exists(manifest):
            time.sleep(0.02)
        assert os.path.exists(manifest), "serve never posted the queue"

        worker_out = io.StringIO()
        worker_rc = main(["worker", "--queue", queue_root, "--file",
                          spec_path, "--id", "host-a", "--poll", "0.02"],
                         out=worker_out)
        coordinator.join(timeout=120)
        assert not coordinator.is_alive()
        assert worker_rc == 0 and serve_rc == [0]
        assert "worker host-a: " in worker_out.getvalue()
        text = serve_out.getvalue()
        assert f"serving 6 runs at {queue_root}" in text
        assert "TOY-BF" in text and "TOY-DW" in text
        # The shared coordinator loop calls serve's progress callback.
        assert "leases: " in text
        assert filecmp.cmp(serial_path, out_path, shallow=False)

    def test_worker_refuses_a_mismatched_study(self, tmp_path, toy_registry):
        spec_path = self.spec_file(tmp_path)
        from repro.study.spec import load_spec

        plan = Study(load_spec(spec_path)).plan()
        queue_root = str(tmp_path / "queue")
        Coordinator(plan.sweep, queue_root, lease_runs=2).post()
        wrong = StudySpec(
            name="cli-dist",
            targets=(TargetSpec(app="toy", label="TOY"),),
            models=(ModelSpec(model="BF"), ModelSpec(model="DW")),
            runs=4, seed=5)  # one extra run per cell
        wrong_path = tmp_path / "wrong.toml"
        wrong_path.write_text(wrong.to_toml(), encoding="utf-8")
        with pytest.raises(FFISError, match="different plan"):
            main(["worker", "--queue", queue_root, "--file",
                  str(wrong_path), "--id", "host-b",
                  "--max-idle-polls", "1"], out=io.StringIO())
