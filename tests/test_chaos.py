"""Chaos suite: the distributed engine under injected infrastructure
faults.

The contract under test is the paper's own methodology pointed back at
the engine: inject storage-stack faults (transient errors, torn writes,
rename-then-crash, stale directory listings, full disks) through the
:class:`QueueIO` seam and verify the campaign either *completes
byte-identically* to serial execution (faults the retry layer and lease
protocol absorb) or *completes partially with every hole named*
(persistent faults the quarantine/degradation ladder owns).  Nothing is
ever silently dropped.

Layout:

* unit tests for :class:`FaultSpec`/:class:`FaultyIO` (schedule
  determinism, fault semantics per kind) and :func:`retry_io`;
* queue-level chaos: damaged-queue resume, poison-lease quarantine,
  expire/unlink races, partial merges with hole reports;
* the **fast smoke** (gates every PR, seconds): a seeded transient-
  fault campaign drains byte-identically, twice, from one seed;
* a hypothesis property: *any* bounded schedule of transient faults is
  invisible in the merged bytes;
* the **slow soak** (weekly lane): crash + ENOSPC + rename-then-crash
  fleets that must finish via quarantine and degradation, holes
  reported.
"""

import errno
import filecmp
import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import execute_sweep, iter_stamped_records
from repro.core.engine.dist import (
    TRANSIENT_ERRNOS,
    ChaosCrash,
    Coordinator,
    FaultSpec,
    FaultyIO,
    FileQueue,
    RetryPolicy,
    execute_distributed,
    merge_shards,
    retry_io,
    run_worker,
    shard_plan,
    write_merged,
)
from repro.core.engine.sink import JsonlSink
from repro.errors import FFISError

from tests.test_dist import settle, synth_record, synthetic_plan, toy_plan


# -- FaultSpec / FaultyIO -------------------------------------------------------


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(FFISError, match="unknown fault site"):
            FaultSpec(site="scribble")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FFISError, match="unknown fault kind"):
            FaultSpec(site="write", kind="meteor")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(FFISError, match="probability"):
            FaultSpec(site="write", probability=1.5)


class TestFaultyIO:
    def test_error_fault_raises_with_the_declared_errno(self, tmp_path):
        io_ = FaultyIO(1, [FaultSpec(site="listdir", err=errno.ENOSPC)])
        with pytest.raises(OSError) as err:
            io_.listdir(str(tmp_path))
        assert err.value.errno == errno.ENOSPC
        (event,) = io_.events
        assert (event.site, event.kind, event.detail) == \
            ("listdir", "error", "ENOSPC")

    def test_probability_zero_never_fires(self, tmp_path):
        io_ = FaultyIO(1, [FaultSpec(site="exists", probability=0.0)])
        for _ in range(50):
            io_.exists(str(tmp_path))
        assert io_.events == []

    def test_schedule_is_a_pure_function_of_the_seed(self, tmp_path):
        spec = FaultSpec(site="exists", probability=0.5, err=errno.EIO)

        def schedule(seed):
            io_ = FaultyIO(seed, [spec])
            for _ in range(40):
                try:
                    io_.exists(str(tmp_path))
                except OSError:
                    pass
            return [(e.site, e.index, e.kind) for e in io_.events]

        assert schedule(7) == schedule(7)
        assert 0 < len(schedule(7)) < 40
        assert schedule(7) != schedule(8)

    def test_max_faults_bounds_total_injections(self, tmp_path):
        io_ = FaultyIO(1, [FaultSpec(site="exists", max_faults=2)])
        failures = 0
        for _ in range(10):
            try:
                io_.exists(str(tmp_path))
            except OSError:
                failures += 1
        assert failures == 2 and len(io_.events) == 2

    def test_match_restricts_injection_by_path(self, tmp_path):
        victim = tmp_path / "victim.txt"
        bystander = tmp_path / "bystander.txt"
        victim.write_text("v")
        bystander.write_text("b")
        io_ = FaultyIO(1, [FaultSpec(site="unlink", match="victim")])
        io_.unlink(str(bystander))     # clean: match excludes it
        with pytest.raises(OSError):
            io_.unlink(str(victim))
        assert not bystander.exists() and victim.exists()

    def test_torn_write_persists_a_prefix_then_raises(self, tmp_path):
        path = str(tmp_path / "lease.json")
        io_ = FaultyIO(1, [FaultSpec(site="write", kind="torn",
                                     err=errno.EIO)])
        f = io_.open_w(path)
        try:
            with pytest.raises(OSError) as err:
                io_.write(f, b"0123456789")
        finally:
            f.close()
        assert err.value.errno == errno.EIO
        with open(path, "rb") as g:
            assert g.read() == b"01234"

    def test_rename_then_crash_completes_the_rename_first(self, tmp_path):
        src, dst = str(tmp_path / "a.tmp"), str(tmp_path / "a.json")
        with open(src, "w", encoding="utf-8") as f:
            f.write("x")
        io_ = FaultyIO(1, [FaultSpec(site="replace", kind="crash")])
        with pytest.raises(ChaosCrash):
            io_.replace(src, dst)
        assert os.path.exists(dst) and not os.path.exists(src)

    def test_stale_listdir_replays_the_previous_snapshot(self, tmp_path):
        (tmp_path / "a").write_text("")
        io_ = FaultyIO(1, [FaultSpec(site="listdir", kind="stale")])
        assert io_.listdir(str(tmp_path)) == ["a"]  # no snapshot yet
        (tmp_path / "b").write_text("")
        assert io_.listdir(str(tmp_path)) == ["a"]  # stale: b invisible
        assert any(e.kind == "stale" for e in io_.events)

    def test_slow_fault_sleeps_the_declared_latency(self, tmp_path):
        naps = []
        io_ = FaultyIO(1, [FaultSpec(site="exists", kind="slow",
                                     latency=0.25, max_faults=1)],
                       sleep=naps.append)
        io_.exists(str(tmp_path))
        assert naps == [0.25]


# -- retry_io -------------------------------------------------------------------


class TestRetry:
    def test_transient_errors_retried_until_success(self):
        calls, naps = [], []

        def op():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.EIO, "flaky mount")
            return "ok"

        policy = RetryPolicy(attempts=4, base_delay=0.01, seed=3)
        assert retry_io(policy, "claim", op, sleep=naps.append) == "ok"
        assert len(calls) == 3
        assert naps == [policy.backoff("claim", 0),
                        policy.backoff("claim", 1)]

    def test_nontransient_errors_propagate_immediately(self):
        calls = []

        def op():
            calls.append(1)
            raise OSError(errno.ENOSPC, "disk full")

        with pytest.raises(OSError) as err:
            retry_io(RetryPolicy(attempts=5), "post", op,
                     sleep=lambda _: None)
        assert err.value.errno == errno.ENOSPC
        assert len(calls) == 1

    def test_attempt_budget_exhausted_raises_the_fault(self):
        calls = []

        def op():
            calls.append(1)
            raise OSError(errno.ESTALE, "handle")

        with pytest.raises(OSError) as err:
            retry_io(RetryPolicy(attempts=3), "heartbeat", op,
                     sleep=lambda _: None)
        assert err.value.errno == errno.ESTALE
        assert len(calls) == 3

    def test_timeout_escalates_to_a_persistent_fault(self):
        def op():
            raise OSError(errno.EIO, "still flaky")

        policy = RetryPolicy(attempts=10, timeout=0.0)
        with pytest.raises(FFISError, match="persistent"):
            retry_io(policy, "finalize", op, sleep=lambda _: None)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=9)
        for attempt in range(5):
            delay = policy.backoff("claim", attempt)
            assert delay == policy.backoff("claim", attempt)
            base = min(policy.max_delay,
                       policy.base_delay * (2 ** attempt))
            assert base * (1 - policy.jitter) <= delay \
                <= base * (1 + policy.jitter)
        assert RetryPolicy(seed=1).backoff("claim", 1) \
            != RetryPolicy(seed=2).backoff("claim", 1)

    def test_policy_validation(self):
        with pytest.raises(FFISError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(FFISError, match="jitter"):
            RetryPolicy(jitter=1.0)


# -- queue-level chaos ----------------------------------------------------------


class TestDamagedQueueResume:
    def build(self, tmp_path, **kwargs):
        plan = synthetic_plan((4,))
        leases = shard_plan(plan, 2)
        root = str(tmp_path / "q")
        queue = FileQueue.create(root, plan, leases, **kwargs)
        return plan, leases, root, queue

    def test_truncated_pending_lease_is_quarantined_and_reposted(
            self, tmp_path):
        plan, leases, root, queue = self.build(tmp_path)
        victim = os.path.join(queue.pending_dir,
                              f"{leases[0].lease_id}.json")
        with open(victim, "w", encoding="utf-8") as f:
            f.write('{"lease_id": "lease-000')  # truncated mid-write
        with pytest.warns(UserWarning, match="unparseable"):
            queue = FileQueue.create(root, plan, leases, reuse=True)
        counts = queue.counts()
        assert counts["pending"] == len(leases)  # re-posted pristine
        assert counts["quarantined"] == 1
        (diag,) = queue.quarantined()
        assert diag["lease_id"] == leases[0].lease_id
        assert "unparseable" in diag["reason"]
        drained = []
        while True:
            claim = queue.claim("w0")
            if claim is None:
                break
            drained.append(claim.lease.lease_id)
            settle(queue, claim)
        assert drained == [lease.lease_id for lease in leases]
        assert queue.all_done()

    def test_garbage_leased_claim_is_quarantined_and_reposted(
            self, tmp_path):
        plan, leases, root, queue = self.build(tmp_path)
        claim = queue.claim("w0")
        with open(claim.path, "w", encoding="utf-8") as f:
            f.write("\x00\x00 not json")
        with pytest.warns(UserWarning, match="unparseable"):
            queue = FileQueue.create(root, plan, leases, reuse=True)
        counts = queue.counts()
        assert counts["pending"] == len(leases)
        assert counts["leased"] == 0
        assert counts["quarantined"] == 1
        (diag,) = queue.quarantined()
        assert diag["lease_id"] == claim.lease.lease_id


class TestPoisonQuarantine:
    def test_failed_lease_requeues_then_quarantines(self, tmp_path):
        plan = synthetic_plan((4,))
        leases = shard_plan(plan, 2)
        queue = FileQueue.create(str(tmp_path / "q"), plan, leases,
                                 quarantine_after=2)
        claim = queue.claim("w0")
        queue.fail(claim, "segment write blew up")
        assert queue.counts()["pending"] == len(leases)  # re-posted
        claim = queue.claim("w0")
        assert claim.lease.attempt == 1
        with pytest.warns(UserWarning, match="quarantined"):
            queue.fail(claim, "segment write blew up again")
        counts = queue.counts()
        assert counts["quarantined"] == 1
        assert counts["pending"] == len(leases) - 1
        (diag,) = queue.quarantined()
        assert diag["reason"] == "segment write blew up again"
        assert diag["worker"] == "w0"
        survivor = queue.claim("w1")
        settle(queue, survivor)
        assert queue.settled() and not queue.all_done()

    def test_expiry_quarantines_past_the_attempt_budget(self, tmp_path):
        plan = synthetic_plan((2,))
        (lease,) = shard_plan(plan, 2)
        queue = FileQueue.create(str(tmp_path / "q"), plan, [lease],
                                 quarantine_after=2)
        for expected_attempt in (1, 2):
            claim = queue.claim(f"dead{expected_attempt}")
            if expected_attempt < 2:
                (requeued,) = queue.expire_stale(0.0,
                                                 now=time.time() + 10)
                assert requeued.attempt == expected_attempt
            else:
                with pytest.warns(UserWarning, match="attempt budget"):
                    assert queue.expire_stale(
                        0.0, now=time.time() + 10) == []
        (diag,) = queue.quarantined()
        assert "attempt budget" in diag["reason"]
        assert queue.settled() and not queue.all_done()

    def test_expire_skips_claims_unlinked_mid_scan(self, tmp_path):
        """The scandir/stat race: a claim completed (and unlinked)
        between the expiry sweep's listing and its mtime probe is
        skipped, not a crash."""
        plan = synthetic_plan((4,))
        leases = shard_plan(plan, 2)
        io_ = FaultyIO(5, [FaultSpec(site="listdir", kind="stale",
                                     match="leased", probability=1.0)])
        queue = FileQueue.create(str(tmp_path / "q"), plan, leases,
                                 io=io_)
        claim = queue.claim("w0")
        assert queue.expire_stale(3600.0) == []  # snapshots leased/
        queue.complete(claim)                    # unlinks the claim
        # The stale listing still names the unlinked claim; the sweep
        # must treat the vanished file as settled, not die on it.
        assert queue.expire_stale(0.0, now=time.time() + 10) == []
        assert any(e.kind == "stale" for e in io_.events)


class TestPartialMerge:
    def shards(self, tmp_path, plan, drop=()):
        stamps = {cell.key: cell.campaign_id for cell in plan.cells}
        path = str(tmp_path / "seg-lease-00000--w0.jsonl")
        sink = JsonlSink(path)
        try:
            for cell in plan.cells:
                for spec in cell.plan.specs:
                    if (cell.key, spec.run_index) in drop:
                        continue
                    sink.emit_stamped(
                        synth_record(cell.key, spec.run_index),
                        stamps[cell.key])
        finally:
            sink.close()
        return [path]

    def test_full_merge_error_suggests_partial_mode(self, tmp_path):
        plan = synthetic_plan((3, 2))
        paths = self.shards(tmp_path, plan, drop={("B", 1)})
        with pytest.raises(FFISError, match="partial=True"):
            merge_shards(plan, paths)

    def test_partial_merge_names_every_hole(self, tmp_path):
        plan = synthetic_plan((3, 2))
        paths = self.shards(tmp_path, plan, drop={("A", 2), ("B", 1)})
        merged, stats = merge_shards(plan, paths, partial=True)
        assert stats.holes == ("A:2", "B:1")
        assert [r.run_index for r in merged["A"]] == [0, 1]
        assert [r.run_index for r in merged["B"]] == [0]
        assert stats.total == 3

    def test_partial_write_emits_receipt_with_quarantine_diags(
            self, tmp_path):
        plan = synthetic_plan((3, 2))
        paths = self.shards(tmp_path, plan, drop={("B", 1)})
        out = str(tmp_path / "results.jsonl")
        diag = {"lease_id": "lease-00002", "reason": "poison"}
        stats = write_merged(plan, paths, out, partial=True,
                             quarantined=(diag,))
        assert stats.holes == ("B:1",)
        pairs = [(stamp, record.run_index)
                 for _, stamp, record in iter_stamped_records(out)]
        assert len(pairs) == 4 and ("camp-B", 1) not in pairs
        with open(out + ".holes.json", encoding="utf-8") as f:
            report = json.load(f)
        assert report["complete"] is False
        assert report["missing_runs"] == ["B:1"]
        assert report["quarantined"] == [diag]

    def test_receipt_written_even_when_partial_is_complete(self, tmp_path):
        plan = synthetic_plan((2,))
        paths = self.shards(tmp_path, plan)
        out = str(tmp_path / "results.jsonl")
        write_merged(plan, paths, out, partial=True)
        with open(out + ".holes.json", encoding="utf-8") as f:
            report = json.load(f)
        assert report["complete"] is True
        assert report["missing_runs"] == []


# -- the fast chaos smoke (gates every PR) --------------------------------------

#: Bounded transient faults the retry layer and lease protocol must
#: absorb without a trace: flaky renames, torn lease JSON, stale NFS
#: listings, failing heartbeats.
SMOKE_FAULTS = (
    FaultSpec(site="replace", err=errno.EIO, probability=0.3,
              max_faults=3),
    FaultSpec(site="write", kind="torn", err=errno.EIO, probability=0.3,
              max_faults=2, match="pending"),
    FaultSpec(site="listdir", kind="stale", probability=0.2,
              max_faults=3),
    FaultSpec(site="utime", err=errno.ESTALE, probability=0.5,
              max_faults=2),
)


def _drain_under_chaos(root, plan, seed, results,
                       faults=SMOKE_FAULTS, quarantine_after=3):
    """One in-process campaign through a seeded FaultyIO; returns the
    io (for schedule assertions) and the merge stats."""
    io_ = FaultyIO(seed, faults)
    retry = RetryPolicy(attempts=6, base_delay=0.0, seed=seed)
    coordinator = Coordinator(plan, root, lease_runs=2, io=io_,
                              retry=retry,
                              quarantine_after=quarantine_after)
    queue = coordinator.post()
    run_worker(root, plan, "w0", io=io_, retry=retry,
               poll_interval=0.0, max_idle_polls=6)
    coordinator.finish(results_path=results, overwrite=True)
    return io_, queue


class TestChaosSmoke:
    def test_transient_chaos_is_byte_invisible_and_replayable(
            self, tmp_path):
        """The PR gate: a seeded schedule of transient faults drains to
        a checkpoint byte-identical to serial, and replaying the seed
        reproduces the exact same schedule and the exact same bytes."""
        plan = toy_plan(n_runs=4)
        serial = str(tmp_path / "serial.jsonl")
        execute_sweep(plan, results_path=serial)

        runs = []
        for attempt in ("one", "two"):
            root = str(tmp_path / f"q-{attempt}")
            dist = str(tmp_path / f"dist-{attempt}.jsonl")
            io_, queue = _drain_under_chaos(root, plan, seed=1234,
                                            results=dist)
            assert filecmp.cmp(serial, dist, shallow=False)
            assert queue.all_done()
            assert queue.counts()["quarantined"] == 0
            runs.append((dist, [(e.site, e.index, e.kind, e.detail)
                                for e in io_.events]))
        (dist_one, events_one), (dist_two, events_two) = runs
        assert events_one, "the chaos schedule never fired"
        assert events_one == events_two
        assert filecmp.cmp(dist_one, dist_two, shallow=False)


# -- the property: bounded transient chaos is invisible -------------------------

_TRANSIENT = sorted(TRANSIENT_ERRNOS)

#: Schedules guaranteed drainable by construction: every family is
#: either absorbed by the retry budget (error/torn, one shot per spec,
#: at most three specs versus six attempts) or structurally tolerated
#: (stale listings).
_DRAINABLE_SPECS = st.lists(
    st.one_of(
        st.builds(FaultSpec, site=st.just("replace"),
                  err=st.sampled_from(_TRANSIENT),
                  probability=st.floats(0.0, 1.0, allow_nan=False),
                  max_faults=st.just(1)),
        st.builds(FaultSpec, site=st.just("utime"),
                  err=st.sampled_from(_TRANSIENT),
                  probability=st.floats(0.0, 1.0, allow_nan=False),
                  max_faults=st.just(1)),
        st.builds(FaultSpec, site=st.just("write"), kind=st.just("torn"),
                  err=st.just(errno.EIO),
                  probability=st.floats(0.0, 1.0, allow_nan=False),
                  max_faults=st.just(1), match=st.just("pending")),
        st.builds(FaultSpec, site=st.just("listdir"),
                  kind=st.just("stale"),
                  probability=st.floats(0.0, 0.5, allow_nan=False),
                  max_faults=st.integers(1, 3)),
    ),
    max_size=3)

_PROPERTY_STATE = {}


def _property_plan(tmp_path_factory):
    """One plan + serial baseline shared across hypothesis examples
    (runs are deterministic in their specs, so reuse is sound)."""
    if "plan" not in _PROPERTY_STATE:
        plan = toy_plan(n_runs=3, seed=11)
        serial = str(tmp_path_factory.mktemp("chaos-serial")
                     / "serial.jsonl")
        execute_sweep(plan, results_path=serial)
        _PROPERTY_STATE.update(plan=plan, serial=serial)
    return _PROPERTY_STATE["plan"], _PROPERTY_STATE["serial"]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), faults=_DRAINABLE_SPECS)
def test_any_drainable_chaos_schedule_is_byte_invisible(
        tmp_path_factory, seed, faults):
    """Property: for any seeded schedule of bounded transient faults,
    the drained campaign's checkpoint is byte-identical to serial
    execution -- the chaos layer is invisible in the science."""
    plan, serial = _property_plan(tmp_path_factory)
    tmp = tmp_path_factory.mktemp("chaos")
    dist = str(tmp / "dist.jsonl")
    _, queue = _drain_under_chaos(str(tmp / "q"), plan, seed, dist,
                                  faults=faults, quarantine_after=100)
    assert queue.all_done()
    assert filecmp.cmp(serial, dist, shallow=False)


# -- degradation ladder ---------------------------------------------------------


class TestDegradationLadder:
    def test_serial_drain_after_fleet_death(self, tmp_path):
        """One worker, zero respawn budget, a crash spec that targets
        only that worker's segments: the coordinator must shrink the
        fleet, reclaim the orphaned claim, and drain the queue itself
        -- byte-identically."""
        plan = toy_plan(n_runs=4)
        serial = str(tmp_path / "serial.jsonl")
        execute_sweep(plan, results_path=serial)
        dist = str(tmp_path / "dist.jsonl")
        io_ = FaultyIO(7, [FaultSpec(site="write", kind="crash",
                                     match="--w00", probability=1.0)])
        result = execute_distributed(
            plan, str(tmp_path / "q"), workers=1, lease_runs=2,
            lease_ttl=0.3, results_path=dist, poll_interval=0.02,
            max_respawns=0, timeout=120.0, io=io_)
        assert filecmp.cmp(serial, dist, shallow=False)
        report = result.degradation
        assert report is not None
        assert report.stages == ["shrunk-fleet", "serial-drain"]
        assert report.worker_deaths == 1
        assert report.holes == () and report.quarantined == 0
        assert "normal -> shrunk-fleet -> serial-drain" \
            in report.describe()

    def test_direct_drain_when_even_the_rescue_crashes(self, tmp_path):
        """Crash every segment write, every worker, including the
        in-process rescue: the ladder's last rung executes the
        remainder bypassing the queue, and the bytes still match."""
        plan = toy_plan(n_runs=4)
        serial = str(tmp_path / "serial.jsonl")
        execute_sweep(plan, results_path=serial)
        dist = str(tmp_path / "dist.jsonl")
        io_ = FaultyIO(7, [FaultSpec(site="write", kind="crash",
                                     match="seg-", probability=1.0)])
        result = execute_distributed(
            plan, str(tmp_path / "q"), workers=1, lease_runs=2,
            lease_ttl=0.3, results_path=dist, poll_interval=0.02,
            max_respawns=0, timeout=120.0, io=io_)
        assert filecmp.cmp(serial, dist, shallow=False)
        report = result.degradation
        assert report is not None
        assert report.stages == ["shrunk-fleet", "serial-drain",
                                 "direct-drain"]
        assert report.holes == ()
        with open(dist + ".holes.json", encoding="utf-8") as f:
            assert json.load(f)["complete"] is True


# -- the slow soak (weekly lane) ------------------------------------------------


@pytest.mark.slow
class TestChaosSoak:
    def test_seeded_soak_settles_around_poison_with_holes_named(
            self, tmp_path):
        """The acceptance campaign: a poison lease that kills every
        worker touching it, ENOSPC bursts on segment publishes, and
        rename-then-crash after publishes.  The fleet must finish the
        rest, quarantine the poison, and account for every planned run
        as either a merged record or a named hole -- never a silent
        drop."""
        plan = toy_plan(n_runs=6)      # leases 0..5; poison one of B's
        dist = str(tmp_path / "dist.jsonl")
        faults = [
            FaultSpec(site="write", kind="crash",
                      match="seg-lease-00004", probability=1.0),
            FaultSpec(site="replace", err=errno.ENOSPC,
                      match="seg-", probability=0.3, max_faults=2),
            FaultSpec(site="replace", kind="crash", match="seg-",
                      probability=0.15, max_faults=1),
        ]
        result = execute_distributed(
            plan, str(tmp_path / "q"), workers=2, lease_runs=2,
            lease_ttl=0.4, results_path=dist, poll_interval=0.02,
            timeout=180.0, io=FaultyIO(31, faults), quarantine_after=2)

        report = result.degradation
        assert report is not None
        assert report.quarantined >= 1
        assert report.worker_deaths >= 2
        holes = set(report.holes)
        assert holes, "the poison lease left no holes?"
        merged_pairs = {(key, record.run_index)
                        for key, records in result.records.items()
                        for record in records}
        for cell in plan.cells:
            for spec in cell.plan.specs:
                in_merge = (cell.key, spec.run_index) in merged_pairs
                in_holes = f"{cell.key}:{spec.run_index}" in holes
                assert in_merge != in_holes, (
                    f"{cell.key}:{spec.run_index} is neither merged "
                    "nor reported missing")
        with open(dist + ".holes.json", encoding="utf-8") as f:
            receipt = json.load(f)
        assert receipt["complete"] is False
        assert set(receipt["missing_runs"]) == holes
        assert any(q.get("lease_id") == "lease-00004"
                   for q in receipt["quarantined"])

    def test_soak_resume_completes_a_cured_campaign(self, tmp_path):
        """Quarantine is not a tombstone: delete the poison diagnosis,
        resume the queue, and the re-posted lease completes -- the
        checkpoint upgrades from partial to byte-identical."""
        plan = toy_plan(n_runs=6)
        serial = str(tmp_path / "serial.jsonl")
        execute_sweep(plan, results_path=serial)
        root = str(tmp_path / "q")
        dist = str(tmp_path / "dist.jsonl")
        faults = [FaultSpec(site="write", kind="crash",
                            match="seg-lease-00004", probability=1.0)]
        execute_distributed(
            plan, root, workers=2, lease_runs=2, lease_ttl=0.4,
            results_path=dist, poll_interval=0.02, timeout=180.0,
            io=FaultyIO(31, faults), quarantine_after=2)
        quarantine = os.path.join(root, "quarantine")
        (poison,) = os.listdir(quarantine)
        os.unlink(os.path.join(quarantine, poison))  # the cure
        result = execute_distributed(
            plan, root, workers=2, lease_runs=2, lease_ttl=0.4,
            results_path=dist, resume=True, poll_interval=0.02,
            timeout=180.0)
        assert result.degradation is None
        assert filecmp.cmp(serial, dist, shallow=False)
