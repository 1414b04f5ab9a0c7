"""The coordinator: post leases, keep the fleet honest, merge the truth.

:class:`Coordinator` owns a campaign's queue lifecycle -- shard the plan
into leases, post them, expire stale claims so a dead worker's work is
reassigned, and finally merge the shards into the canonical checkpoint.
It never executes a run itself, so one coordinator can serve workers on
any mix of hosts that share the queue directory.

:func:`execute_distributed` is the batteries-included local form: fork
``workers`` worker processes over an in-memory plan (fork inheritance
ships the compiled plan for free -- the capture-then-fork trick from the
parallel executor, stretched across a queue), supervise them, and
return a :class:`~repro.core.engine.sweep.SweepResult` indistinguishable
from serial execution.  SIGKILLing any worker mid-lease is survivable
by construction: its lease expires, a peer (or respawn) re-executes it,
and the merge deduplicates whatever the dead worker had already
written.

When the infrastructure itself is failing, the coordinator walks a
**degradation ladder** instead of dying:

1. *normal* -- dead workers are respawned within the respawn budget;
2. *shrunk-fleet* -- past the budget, deaths stop being replaced and
   the surviving workers finish the campaign;
3. *serial-drain* -- with every worker dead, the coordinator reclaims
   the orphaned claims and drains the queue itself, in process;
4. *direct-drain* -- if even the queue's storage is persistently
   broken, the remaining runs execute in process *bypassing* the
   queue, and their records ride into the merge as ``extra``.

Each step taken is recorded in a :class:`DegradationReport` attached to
the result, and a campaign that settles around quarantined poison
leases finishes with a partial merge plus an explicit hole report --
completed cells byte-identical to serial, missing runs named, nothing
silently dropped.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.engine.dist.chaos import ChaosCrash, QueueIO
from repro.core.engine.dist.lease import (
    Lease,
    default_lease_runs,
    shard_plan,
)
from repro.core.engine.dist.merge import (
    MergeStats,
    merge_and_write,
    merge_shards,
)
from repro.core.engine.dist.queue import (
    DEFAULT_QUARANTINE_AFTER,
    FileQueue,
)
from repro.core.engine.dist.retry import RetryPolicy
from repro.core.engine.dist.worker import run_worker
from repro.core.engine.executor import _place_worker
from repro.core.engine.runner import execute_run_spec
from repro.core.engine.sink import merge_shard_records
from repro.core.engine.sweep import SweepPlan, SweepResult, _boundary_sorted
from repro.core.outcomes import RunRecord
from repro.errors import FFISError


@dataclass
class DegradationReport:
    """Which fallbacks a distributed campaign took, and what it cost.

    ``stages`` is the ordered ladder actually walked (empty = the
    normal path); ``holes`` and ``quarantined`` account for every run
    the merged checkpoint does *not* contain, so "the campaign
    completed" and "the campaign completed around these losses" are
    never conflated.
    """

    stages: List[str] = field(default_factory=list)
    reasons: List[str] = field(default_factory=list)
    worker_deaths: int = 0
    quarantined: int = 0
    holes: Tuple[str, ...] = ()

    def record(self, stage: str, reason: str) -> None:
        if stage not in self.stages:
            self.stages.append(stage)
            self.reasons.append(reason)

    @property
    def degraded(self) -> bool:
        return bool(self.stages) or self.quarantined > 0 \
            or bool(self.holes)

    def describe(self) -> str:
        path = " -> ".join(["normal"] + self.stages)
        bits = [f"degradation path: {path}"]
        if self.worker_deaths:
            bits.append(f"worker deaths: {self.worker_deaths}")
        if self.quarantined:
            bits.append(f"quarantined leases: {self.quarantined}")
        if self.holes:
            bits.append(f"missing runs: {len(self.holes)}")
        return "; ".join(bits)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stages": list(self.stages),
            "reasons": list(self.reasons),
            "worker_deaths": self.worker_deaths,
            "quarantined": self.quarantined,
            "missing_runs": list(self.holes),
        }


class Coordinator:
    """One campaign's lease lifecycle over a shared queue directory."""

    def __init__(self, plan: SweepPlan, root: str, *,
                 lease_runs: Optional[int] = None,
                 lease_ttl: float = 30.0,
                 workers: int = 2,
                 io: Optional[QueueIO] = None,
                 retry: Optional[RetryPolicy] = None,
                 quarantine_after: int = DEFAULT_QUARANTINE_AFTER) -> None:
        self.plan = plan
        self.root = root
        self.lease_ttl = lease_ttl
        self.lease_runs = (lease_runs if lease_runs is not None
                           else default_lease_runs(plan, workers))
        self.leases: Tuple[Lease, ...] = shard_plan(plan, self.lease_runs)
        self.io = io
        self.retry = retry
        self.quarantine_after = quarantine_after
        self.queue: Optional[FileQueue] = None

    def post(self, reuse: bool = False) -> FileQueue:
        """Create (or resume, with ``reuse=True``) the queue and post
        every lease not already settled."""
        self.queue = FileQueue.create(
            self.root, self.plan, self.leases, reuse=reuse,
            io=self.io, retry=self.retry,
            quarantine_after=self.quarantine_after)
        return self.queue

    def _require_queue(self) -> FileQueue:
        if self.queue is None:
            raise FFISError("coordinator has not posted its queue yet")
        return self.queue

    def expire(self) -> List[Lease]:
        """One liveness sweep: re-post every claim past the lease TTL."""
        return self._require_queue().expire_stale(self.lease_ttl)

    def done(self) -> bool:
        return self._require_queue().all_done()

    def settled(self) -> bool:
        """Done *or* quarantined: no further progress is possible."""
        return self._require_queue().settled()

    def finish(self, results_path: Optional[str] = None, *,
               overwrite: bool = False,
               partial: bool = False,
               extra: Optional[Dict[Optional[str],
                                    Dict[int, RunRecord]]] = None,
               ) -> Tuple[Dict[str, List[RunRecord]], MergeStats]:
        """End the campaign: raise the FINISHED marker (workers drain
        and exit) and merge the shards into plan-order records --
        optionally also writing the canonical checkpoint file.

        ``partial=True`` settles around quarantined leases: the merge
        emits what exists (byte-identical for completed runs) and the
        checkpoint gains a machine-readable hole report carrying the
        queue's quarantine diagnostics.
        """
        queue = self._require_queue()
        try:
            queue.mark_finished()
        except OSError:
            if not partial:
                raise
            # A persistently broken queue cannot stop a partial finish:
            # the workers are already dead by the time we degrade here.
        quarantined = queue.quarantined() if partial else ()
        if results_path is None:
            return merge_shards(self.plan, queue.shard_paths(),
                                partial=partial, extra=extra)
        return merge_and_write(self.plan, queue.shard_paths(), results_path,
                               overwrite=overwrite, partial=partial,
                               extra=extra, quarantined=quarantined)


def _worker_entry(root: str, plan: SweepPlan, worker_id: str,
                  poll_interval: float, io: Optional[QueueIO],
                  retry: Optional[RetryPolicy]) -> None:
    """Module-level fork target (inherits *plan* without pickling).

    The worker starts on its own CPU, as pool workers do
    (:func:`~repro.core.engine.executor._place_worker`), before it
    drains the queue.
    """
    _place_worker()
    run_worker(root, plan, worker_id, poll_interval=poll_interval,
               io=io, retry=retry)


def _direct_drain(plan: SweepPlan, queue: FileQueue
                  ) -> Dict[Optional[str], Dict[int, RunRecord]]:
    """Last rung of the ladder: execute every run no published segment
    covers, in process, without touching the (broken) queue.

    Runs are deterministic in their spec, so these records are
    byte-identical to what a healthy worker would have produced; they
    ride into the merge as ``extra``.
    """
    try:
        groups, _ = merge_shard_records(queue.shard_paths())
    except (FFISError, OSError):
        groups = {}  # even the shards are unreadable: recompute all
    stamps = {cell.key: cell.campaign_id for cell in plan.cells}
    extra: Dict[Optional[str], Dict[int, RunRecord]] = {}
    for cell in plan.cells:
        have = groups.get(stamps[cell.key], {})
        todo = [spec for spec in cell.plan.specs
                if spec.run_index not in have]
        for spec in _boundary_sorted(cell.plan.context, todo):
            record = execute_run_spec(cell.plan.context, spec)
            extra.setdefault(stamps[cell.key], {})[spec.run_index] = record
    return extra


def execute_distributed(plan: SweepPlan, root: str, *,
                        workers: int = 2,
                        lease_runs: Optional[int] = None,
                        lease_ttl: float = 30.0,
                        results_path: Optional[str] = None,
                        resume: bool = False,
                        poll_interval: float = 0.05,
                        max_respawns: Optional[int] = None,
                        timeout: Optional[float] = None,
                        io: Optional[QueueIO] = None,
                        retry: Optional[RetryPolicy] = None,
                        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
                        ) -> SweepResult:
    """Run *plan* across forked local workers via a lease queue at *root*.

    The result -- records, per-cell ordering, and (when *results_path*
    is given) the checkpoint file bytes -- is identical to
    ``execute_sweep(plan, workers=1)``.  Dead workers are respawned (up
    to *max_respawns*, default ``4 * workers``); past that budget the
    campaign *degrades* instead of dying -- shrunken fleet, then an
    in-process serial drain, then a queue-bypassing direct drain -- and
    the taken path is reported on ``result.degradation``.  *timeout*
    bounds the whole campaign as a hang backstop.  ``resume=True``
    re-opens an interrupted queue directory: settled leases stay
    settled and only the remainder executes.  ``io``/``retry`` are the
    chaos seam and transient-retry policy handed to the queue and every
    forked worker.
    """
    # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
    start = time.perf_counter()
    if workers < 1:
        raise FFISError(f"need at least one worker, got {workers}")
    if results_path is not None and not resume \
            and os.path.exists(results_path) and os.path.getsize(results_path):
        # Same contract as execute_sweep: refuse before any run
        # executes rather than clobber a file full of paid-for runs.
        raise FFISError(
            f"{results_path} already contains results; resume it "
            "(--resume / resume=True) or write to a fresh --out path "
            "instead of overwriting completed runs")
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as exc:
        raise FFISError(
            "distributed local workers need the fork start method; on "
            "this platform run separate `repro worker` processes against "
            "the queue directory instead") from exc

    coordinator = Coordinator(plan, root, lease_runs=lease_runs,
                              lease_ttl=lease_ttl, workers=workers,
                              io=io, retry=retry,
                              quarantine_after=quarantine_after)
    queue = coordinator.post(reuse=resume)
    budget = max_respawns if max_respawns is not None else 4 * workers
    report = DegradationReport()
    procs: Dict[str, multiprocessing.Process] = {}
    spawned = 0
    extra: Optional[Dict[Optional[str], Dict[int, RunRecord]]] = None

    def _spawn() -> None:
        nonlocal spawned
        worker_id = f"w{spawned:02d}"
        spawned += 1
        proc = ctx.Process(target=_worker_entry,
                           args=(root, plan, worker_id, poll_interval,
                                 io, retry))
        proc.start()
        procs[worker_id] = proc

    for _ in range(workers):
        _spawn()
    # repro: allow[R001] campaign deadline is a hang backstop, never recorded
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while not queue.settled():
            try:
                coordinator.expire()
            except OSError:
                pass  # expiry is best-effort; the next sweep retries
            for worker_id in sorted(procs):
                proc = procs[worker_id]
                if not proc.is_alive() and not queue.settled():
                    # A worker died (crash, OOM, SIGKILL): its claim
                    # will expire and re-post; keep the fleet at
                    # strength so someone is there to pick it up --
                    # until the budget says the crashes are systemic.
                    del procs[worker_id]
                    report.worker_deaths += 1
                    if report.worker_deaths > budget:
                        report.record(
                            "shrunk-fleet",
                            f"respawn budget {budget} exhausted after "
                            f"{report.worker_deaths} worker deaths; no "
                            "longer replacing casualties")
                    else:
                        _spawn()
            if not procs and not queue.settled():
                # The whole fleet is gone and the budget is spent:
                # drain what remains in this process.  Orphaned claims
                # are reclaimed immediately -- their workers are dead,
                # not slow.
                report.record(
                    "serial-drain",
                    "every worker is dead; draining the queue in "
                    "process")
                try:
                    queue.expire_stale(0.0)
                    run_worker(root, plan, worker_id="rescue",
                               poll_interval=poll_interval,
                               reclaim_ttl=0.0, max_idle_polls=2,
                               io=io, retry=retry)
                except (ChaosCrash, OSError, FFISError) as exc:
                    # Even in-process draining cannot get through the
                    # queue's storage: compute the remainder directly.
                    report.record(
                        "direct-drain",
                        f"queue storage is persistently failing "
                        f"({type(exc).__name__}: {exc}); executing the "
                        "remainder in process, bypassing the queue")
                    extra = _direct_drain(plan, queue)
                break
            # repro: allow[R001] hang-backstop check only, never recorded
            if deadline is not None and time.monotonic() > deadline:
                raise FFISError(
                    f"distributed campaign at {root} exceeded its "
                    f"{timeout}s timeout with work outstanding "
                    f"({queue.counts()}); the queue directory is intact "
                    "-- resume it")
            time.sleep(poll_interval)
    finally:
        # Raise FINISHED first so healthy workers drain and exit on
        # their own; anything still alive after a grace join is torn
        # down (its lease state is crash-safe regardless).
        try:
            queue.mark_finished()
        except OSError:
            pass  # broken queue storage; workers still get terminated
        for proc in procs.values():
            proc.join(timeout=5.0)
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
    partial = extra is not None or not queue.all_done()
    merged, stats = coordinator.finish(results_path=results_path,
                                       overwrite=True, partial=partial,
                                       extra=extra)
    report.quarantined = queue.counts()["quarantined"]
    report.holes = stats.holes
    result = SweepResult(records=merged, executed=stats.total)
    if report.degraded:
        result.degradation = report
    # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
    result.elapsed_seconds = time.perf_counter() - start
    return result
