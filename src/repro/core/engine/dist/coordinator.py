"""The coordinator: post leases, keep the fleet honest, merge the truth.

:class:`Coordinator` owns a campaign's queue lifecycle -- shard the plan
into leases, post them, and finally merge the shards into plan-order
records.  It never executes a run itself, so one coordinator can serve
workers on any mix of hosts that share the queue directory.

:class:`FleetExecutor` puts the lease queue behind the
:class:`~repro.core.engine.executor.Executor` seam.  Its ``map_tagged``
is the one coordinator loop: post, then poll until every lease settles
-- expiring stale claims so a dead worker's work is reassigned -- merge
the shards once, and yield the records of the items it was asked for.
:func:`~repro.core.engine.sweep.execute_sweep` then writes, orders and
resumes them exactly as it does the serial and pool backends' records,
so the checkpoint is indistinguishable from serial execution.
``workers`` forked local workers drain the queue over an in-memory plan
(fork inheritance ships the compiled plan for free -- the
capture-then-fork trick from the parallel executor, stretched across a
queue); ``workers=0`` forks none and only coordinates a fleet that
attaches on its own schedule, which is what ``repro study serve``
runs.  SIGKILLing any worker mid-lease is survivable by construction:
its lease expires, a peer (or respawn) re-executes it, and the merge
deduplicates whatever the dead worker had already written.

When the infrastructure itself is failing, the coordinator walks a
**degradation ladder** instead of dying:

1. *normal* -- dead workers are respawned within the respawn budget;
2. *shrunk-fleet* -- past the budget, deaths stop being replaced and
   the surviving workers finish the campaign;
3. *serial-drain* -- with every forked worker dead, the coordinator
   reclaims the orphaned claims and drains the queue itself, in
   process;
4. *direct-drain* -- if even the queue's storage is persistently
   broken, the requested runs no published segment holds execute in
   process through the serial backend, *bypassing* the queue.

The ladder supervises local workers only: with ``workers=0`` the
coordinator waits for its attached workers instead of draining.  Each
step taken is recorded in a :class:`DegradationReport`, the executor's
``report``, and a campaign that settles around quarantined poison
leases names every run it could not yield as a hole -- the sweep
writes the completed runs byte-identical to serial plus a hole
receipt, and nothing is silently dropped.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.engine.dist.chaos import ChaosCrash, QueueIO
from repro.core.engine.dist.lease import (
    Lease,
    default_lease_runs,
    shard_plan,
)
from repro.core.engine.dist.merge import MergeStats, merge_shards
from repro.core.engine.dist.queue import (
    DEFAULT_QUARANTINE_AFTER,
    FileQueue,
)
from repro.core.engine.dist.retry import RetryPolicy
from repro.core.engine.dist.worker import run_worker
from repro.core.engine.executor import Executor, SerialExecutor, _place_worker
from repro.core.engine.sweep import SweepPlan
from repro.core.outcomes import RunRecord
from repro.errors import FFISError


@dataclass
class DegradationReport:
    """Which fallbacks a distributed campaign took, and what it cost.

    ``stages`` is the ordered ladder actually walked (empty = the
    normal path); ``holes`` and ``quarantined`` account for every run
    the checkpoint does *not* contain, so "the campaign completed" and
    "the campaign completed around these losses" are never conflated.
    """

    stages: List[str] = field(default_factory=list)
    reasons: List[str] = field(default_factory=list)
    worker_deaths: int = 0
    quarantined: int = 0
    #: every requested run the fleet could not yield, as
    #: ``cell:run_index``, in plan order
    holes: Tuple[str, ...] = ()
    #: the queue's quarantine diagnostics (poison + damaged leases)
    diagnostics: Tuple[Dict[str, Any], ...] = ()

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

    def write_receipt(self, path: str) -> None:
        """Write the machine-readable hole receipt the sweep keeps
        beside a partial checkpoint (``<results>.holes.json``),
        atomically: a tmp sibling renamed into place."""
        receipt = {
            "complete": not self.holes,
            "missing_runs": list(self.holes),
            "missing_count": len(self.holes),
            "quarantined": [dict(diag) for diag in self.diagnostics],
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(receipt, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)


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

    def finish(self, partial: bool = False
               ) -> Tuple[Dict[str, List[RunRecord]], MergeStats]:
        """End the campaign: raise the FINISHED marker (workers drain
        and exit) and merge the shards into plan-order records.

        ``partial=True`` settles around quarantined leases: the merge
        returns what exists and names the rest in
        :attr:`MergeStats.holes` instead of raising.
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
        return merge_shards(self.plan, queue.shard_paths(), partial=partial)


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


@dataclass(eq=False)
class FleetExecutor(Executor):
    """The lease-queue fleet as an :class:`Executor`.

    ``map_tagged(plan, items)`` posts *plan*'s leases at *root* and runs
    the coordinator loop until every lease settles, then merges the
    shards once and yields the records of the requested *items* --
    :func:`~repro.core.engine.sweep.execute_sweep` writes, orders and
    resumes them like any backend's.  ``workers`` local worker
    processes are forked to drain the queue; ``workers=0`` forks none
    and waits for workers that attach on their own (``repro worker``
    on any host that mounts *root*).  Dead local workers are respawned
    (up to *max_respawns*, default ``4 * workers``); past that budget
    the campaign *degrades* instead of dying -- shrunken fleet, then an
    in-process serial drain, then a queue-bypassing direct drain -- and
    the taken path is the executor's ``report``.  *timeout* bounds the
    whole campaign as a hang backstop.  ``resume=True`` re-opens an
    interrupted queue directory: settled leases stay settled and only
    the remainder executes.  It is explicit, never inferred from a root
    that holds a queue, so a rebuilt program cannot silently reuse an
    old build's shards.  ``io``/``retry`` are the chaos seam and
    transient-retry policy handed to the queue and every forked worker.
    ``progress(counts)`` receives the queue's lease counts once per
    poll and once after the fleet settles.
    """

    root: str
    workers: int = 2
    lease_runs: Optional[int] = None
    lease_ttl: float = 30.0
    resume: bool = False
    poll_interval: float = 0.05
    max_respawns: Optional[int] = None
    timeout: Optional[float] = None
    io: Optional[QueueIO] = None
    retry: Optional[RetryPolicy] = None
    quarantine_after: int = DEFAULT_QUARANTINE_AFTER
    progress: Optional[Callable[[Dict[str, int]], None]] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise FFISError(f"workers must be >= 0, got {self.workers}")

    def map_tagged(self, plan: SweepPlan, items
                   ) -> Iterator[Tuple[str, RunRecord]]:
        items = list(items)
        self.report = None
        root, io, retry = self.root, self.io, self.retry
        poll_interval = self.poll_interval
        if self.workers:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError as exc:
                raise FFISError(
                    "distributed local workers need the fork start method; "
                    "on this platform run separate `repro worker` processes "
                    "against the queue directory instead") from exc

        coordinator = Coordinator(plan, root, lease_runs=self.lease_runs,
                                  lease_ttl=self.lease_ttl,
                                  workers=self.workers, io=io, retry=retry,
                                  quarantine_after=self.quarantine_after)
        queue = coordinator.post(reuse=self.resume)

        budget = self.max_respawns if self.max_respawns is not None \
            else 4 * self.workers
        report = DegradationReport()
        procs: Dict[str, multiprocessing.Process] = {}
        spawned = 0
        direct = False

        def _spawn() -> None:
            nonlocal spawned
            worker_id = f"w{spawned:02d}"
            spawned += 1
            proc = ctx.Process(target=_worker_entry,
                               args=(root, plan, worker_id, poll_interval,
                                     io, retry))
            proc.start()
            procs[worker_id] = proc

        for _ in range(self.workers):
            _spawn()
        # repro: allow[R001] campaign deadline is a hang backstop, never recorded
        deadline = None if self.timeout is None \
            else time.monotonic() + self.timeout
        try:
            while not queue.settled():
                try:
                    queue.expire_stale(coordinator.lease_ttl)
                except OSError:
                    pass  # expiry is best-effort; the next sweep retries
                if self.progress is not None:
                    self.progress(queue.counts())
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
                    # Every worker this call forked is gone and the
                    # budget is spent: drain what remains in this
                    # process.  Orphaned claims are reclaimed
                    # immediately -- their workers are dead, not slow.
                    # A coordinator that forked none never gets here: it
                    # waits for the workers attached to its queue.
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
                        # Even in-process draining cannot get through
                        # the queue's storage: after the merge, compute
                        # the remainder directly.
                        report.record(
                            "direct-drain",
                            f"queue storage is persistently failing "
                            f"({type(exc).__name__}: {exc}); executing the "
                            "remainder in process, bypassing the queue")
                        direct = True
                    break
                # repro: allow[R001] hang-backstop check only, never recorded
                if deadline is not None and time.monotonic() > deadline:
                    raise FFISError(
                        f"distributed campaign at {root} exceeded its "
                        f"{self.timeout}s timeout with work outstanding "
                        f"({queue.counts()}); the queue directory is "
                        "intact -- resume it")
                time.sleep(poll_interval)
        finally:
            if procs:
                # Raise FINISHED first so healthy local workers drain
                # and exit on their own; anything still alive after a
                # grace join is torn down (its lease state is
                # crash-safe regardless).  Without local workers an
                # unsettled queue stays open: its attached workers keep
                # polling for a resumed coordinator.
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
        merged, stats = coordinator.finish(
            partial=direct or not queue.all_done())
        if self.progress is not None:
            self.progress(queue.counts())
        by_pair = {(key, record.run_index): record
                   for key, records in merged.items() for record in records}
        rest = [(key, spec) for key, spec in items
                if (key, spec.run_index) not in by_pair]
        report.quarantined = queue.counts()["quarantined"]
        if rest and not direct:
            lost = {f"{key}:{spec.run_index}" for key, spec in rest}
            report.holes = tuple(h for h in stats.holes if h in lost)
            report.diagnostics = tuple(queue.quarantined())
            rest = []
        if report.degraded:
            self.report = report
        for key, spec in items:
            record = by_pair.get((key, spec.run_index))
            if record is not None:
                yield key, record
        yield from SerialExecutor().map_tagged(plan, rest)
