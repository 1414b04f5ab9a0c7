"""The coordinator: post leases, keep the fleet honest, merge the truth.

:class:`Coordinator` owns a campaign's queue lifecycle -- shard the plan
into leases, post them, and finally merge the shards into the canonical
checkpoint.  It never executes a run itself, so one coordinator can
serve workers on any mix of hosts that share the queue directory.

:func:`execute_distributed` is the one coordinator loop: post, then
poll until every lease settles -- expiring stale claims so a dead
worker's work is reassigned -- and merge.  ``workers`` forked local
workers drain the queue over an in-memory plan (fork inheritance ships
the compiled plan for free -- the capture-then-fork trick from the
parallel executor, stretched across a queue); ``workers=0`` forks none
and only coordinates a fleet that attaches on its own schedule, which
is what ``repro study serve`` runs.  The result is a
:class:`~repro.core.engine.sweep.SweepResult` indistinguishable from
serial execution.  SIGKILLing any worker mid-lease is survivable by
construction: its lease expires, a peer (or respawn) re-executes it,
and the merge deduplicates whatever the dead worker had already
written.

When the infrastructure itself is failing, the coordinator walks a
**degradation ladder** instead of dying:

1. *normal* -- dead workers are respawned within the respawn budget;
2. *shrunk-fleet* -- past the budget, deaths stop being replaced and
   the surviving workers finish the campaign;
3. *serial-drain* -- with every forked worker dead, the coordinator
   reclaims the orphaned claims and drains the queue itself, in
   process;
4. *direct-drain* -- if even the queue's storage is persistently
   broken, the remaining runs execute in process *bypassing* the
   queue, and their records ride into the merge as ``extra``.

The ladder supervises local workers only: with ``workers=0`` the
coordinator waits for its attached workers instead of draining.  Each
step taken is recorded in a :class:`DegradationReport` attached to the
result, and a campaign that settles around quarantined poison leases
finishes with a partial merge plus an explicit hole report --
completed cells byte-identical to serial, missing runs named, nothing
silently dropped.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from repro.core.engine.plan import RunPlan
from repro.core.engine.sink import merge_shard_records, refuse_overwrite
from repro.core.engine.sweep import (
    SweepCell,
    SweepPlan,
    SweepResult,
    execute_sweep,
)
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

    def runs_published(self) -> int:
        """How many runs the leases with a published segment hold."""
        done = self.queue.settled_names()
        return sum(len(lease) for lease in self.leases
                   if f"{lease.lease_id}.json" in done)

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
        queue = self.queue
        if queue is None:
            raise FFISError("coordinator has not posted its queue yet")
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

    The remainder is a :class:`SweepPlan` of its own, run through
    :func:`~repro.core.engine.sweep.execute_sweep`.  Runs are
    deterministic in their spec, so these records are byte-identical
    to what a healthy worker would have produced; they ride into the
    merge as ``extra``.
    """
    try:
        groups, _ = merge_shard_records(queue.shard_paths())
    except (FFISError, OSError):
        groups = {}  # even the shards are unreadable: recompute all
    remainder = SweepPlan(cells=tuple(
        SweepCell(key=cell.key, campaign_id=cell.campaign_id,
                  plan=RunPlan(context=cell.plan.context, specs=tuple(
                      spec for spec in cell.plan.specs
                      if spec.run_index not in groups.get(
                          cell.campaign_id, {}))))
        for cell in plan.cells))
    records = execute_sweep(remainder).records
    return {cell.campaign_id: {record.run_index: record
                               for record in records[cell.key]}
            for cell in plan.cells}


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
                        progress: Optional[
                            Callable[[Dict[str, int]], None]] = None,
                        ) -> SweepResult:
    """Run *plan* through a lease queue at *root* until every lease
    settles, then merge.

    The result -- records, per-cell ordering, and (when *results_path*
    is given) the checkpoint file bytes -- is identical to
    ``execute_sweep(plan, workers=1)``.  ``workers`` local worker
    processes are forked to drain the queue; ``workers=0`` forks none
    and waits for workers that attach on their own (``repro worker``
    on any host that mounts *root*).  Dead local workers are respawned
    (up to *max_respawns*, default ``4 * workers``); past that budget
    the campaign *degrades* instead of dying -- shrunken fleet, then an
    in-process serial drain, then a queue-bypassing direct drain -- and
    the taken path is reported on ``result.degradation``.  *timeout*
    bounds the whole campaign as a hang backstop.  ``resume=True``
    re-opens an interrupted queue directory: settled leases stay
    settled and only the remainder executes.  ``io``/``retry`` are the
    chaos seam and transient-retry policy handed to the queue and every
    forked worker.  ``progress(counts)`` receives the queue's lease
    counts once per poll, with two run counts added: ``runs`` (the
    plan's size) and ``runs_done`` (the runs in leases whose segments
    are published).  One last call follows the merge, with
    ``runs_done`` the number of runs merged.
    """
    # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
    start = time.perf_counter()
    if workers < 0:
        raise FFISError(f"workers must be >= 0, got {workers}")
    refuse_overwrite(results_path, resume)
    if workers:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise FFISError(
                "distributed local workers need the fork start method; "
                "on this platform run separate `repro worker` processes "
                "against the queue directory instead") from exc

    coordinator = Coordinator(plan, root, lease_runs=lease_runs,
                              lease_ttl=lease_ttl, workers=workers,
                              io=io, retry=retry,
                              quarantine_after=quarantine_after)
    queue = coordinator.post(reuse=resume)

    def _report(runs_done: int) -> None:
        progress(dict(queue.counts(), runs=len(plan), runs_done=runs_done))

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
                queue.expire_stale(coordinator.lease_ttl)
            except OSError:
                pass  # expiry is best-effort; the next sweep retries
            if progress is not None:
                _report(coordinator.runs_published())
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
            if spawned and not procs and not queue.settled():
                # Every worker this call forked is gone and the budget
                # is spent: drain what remains in this process.
                # Orphaned claims are reclaimed immediately -- their
                # workers are dead, not slow.  A coordinator that
                # forked none never gets here: it waits for the
                # workers attached to its queue.
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
        if procs:
            # Raise FINISHED first so healthy local workers drain and
            # exit on their own; anything still alive after a grace
            # join is torn down (its lease state is crash-safe
            # regardless).  Without local workers an unsettled queue
            # stays open: its attached workers keep polling for a
            # resumed coordinator.
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
    if progress is not None:
        _report(stats.total)
    report.quarantined = queue.counts()["quarantined"]
    report.holes = stats.holes
    result = SweepResult(records=merged, executed=stats.total)
    if report.degraded:
        result.degradation = report
    # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
    result.elapsed_seconds = time.perf_counter() - start
    return result
