"""The distributed worker loop: claim, execute, stream, settle.

A worker is deliberately boring: it claims one lease at a time, executes
the lease's specs through the same :func:`execute_run_spec` every other
executor uses, streams each record into a per-lease **segment** file,
heartbeats its claim, publishes the segment atomically -- the publish
is what settles the lease -- and releases its claim.  All the
interesting guarantees live elsewhere --
determinism in the spec (any worker produces byte-identical records),
crash recovery in the queue (an expired lease is re-posted), and dedup
in the merge step (a re-executed lease's records collapse by
``(campaign, run index)``).

Segments are the crash-consistency story for shard output: each lease's
records are written to a ``.tmp`` sibling, flushed and fsynced, and
only then renamed to their final ``.jsonl`` name, and that rename
settles the lease.  A worker killed at any point therefore leaves
either no segment (the lease is re-executed after expiry) or a
complete one (the lease is settled; expiry drops the leftover claim);
a half-written final line can never reach the merge step as a stray
stamp, because the merge step only reads ``.jsonl`` files.

Infrastructure faults during a lease (``OSError`` out of the queue
seam, after the retry layer has given up) do not kill the worker: the
segment is aborted and the claim is *failed* back to the queue, which
re-posts it with its attempt bumped -- or quarantines it as poison once
the attempt budget is spent.  :class:`ChaosCrash` is the one exception
that always propagates: it *is* the simulated process death.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import IO, Optional

from repro.core.engine.dist.chaos import ChaosCrash, QueueIO
from repro.core.engine.dist.queue import FileQueue
from repro.core.engine.dist.retry import RetryPolicy
from repro.core.engine.runner import execute_run_spec
from repro.core.engine.sink import format_stamped_line
from repro.core.engine.sweep import SweepPlan, _boundary_sorted
from repro.errors import FFISError


@dataclass
class WorkerStats:
    """What one worker invocation actually did."""

    worker_id: str
    leases: int = 0
    runs: int = 0
    #: Leases whose ``attempt > 0`` -- work re-executed after another
    #: worker's lease expired (each may duplicate records; the merge
    #: step drops the copies).
    retries: int = 0
    #: Leases this worker gave up on after an infrastructure fault
    #: (failed back to the queue for reassignment or quarantine).
    failures: int = 0


class _SegmentWriter:
    """One lease's record stream, published atomically or not at all."""

    def __init__(self, queue: FileQueue, worker_id: str,
                 lease_id: str) -> None:
        self._queue = queue
        self.final = queue.segment_path(worker_id, lease_id)
        self._f: Optional[IO[bytes]] = queue.io.open_w(self.final + ".tmp")
        self._published = False

    def emit(self, record, campaign_id: Optional[str]) -> None:
        assert self._f is not None
        self._queue.io.write(
            self._f,
            format_stamped_line(record, campaign_id).encode("utf-8"))

    def publish(self) -> None:
        """Flush, fsync, close, then atomically rename into the merge
        set -- the segment exists whole or not at all."""
        assert self._f is not None
        self._queue.io.fsync(self._f)
        self._f.close()
        self._f = None
        self._queue.publish_segment(self.final)
        self._published = True

    def close(self) -> None:
        """Idempotent cleanup: an unpublished segment's tmp file is
        discarded so an aborted lease leaves nothing the merge (or a
        later resume) could misread."""
        if self._f is not None:
            self._f.close()
            self._f = None
        if not self._published:
            try:
                self._queue.io.unlink(self.final + ".tmp")
            except OSError:
                pass
            self._published = True  # nothing left to clean


def run_worker(root: str, plan: SweepPlan, worker_id: str, *,
               poll_interval: float = 0.05,
               reclaim_ttl: Optional[float] = None,
               max_idle_polls: Optional[int] = None,
               io: Optional[QueueIO] = None,
               retry: Optional[RetryPolicy] = None) -> WorkerStats:
    """Drain leases from the queue at *root* until the campaign settles.

    *plan* must be the same sweep the coordinator posted -- the queue
    manifest pins cell keys, campaign stamps, and run counts, and a
    mismatch is refused before any run executes.

    The loop exits when the coordinator's FINISHED marker appears or
    every manifest lease is settled (done or quarantined).
    ``reclaim_ttl`` lets a worker fleet operate without a live
    coordinator: idle workers expire stale claims themselves, so a
    SIGKILLed peer's lease is still reassigned.  ``max_idle_polls``
    bounds how many consecutive empty polls a worker tolerates before
    giving up (a liveness backstop for tests and orphaned workers;
    ``None`` polls forever).  ``io``/``retry`` select the queue's
    filesystem seam and transient-retry policy -- the chaos suite's
    injection points.
    """
    queue = FileQueue(root, io=io, retry=retry)
    queue.verify_plan(plan)
    cells = {cell.key: cell for cell in plan.cells}
    stats = WorkerStats(worker_id=worker_id)
    idle = 0
    while True:
        claim = queue.claim(worker_id)
        if claim is None:
            if queue.finished() or queue.settled():
                break
            idle += 1
            if max_idle_polls is not None and idle > max_idle_polls:
                break
            if reclaim_ttl is not None:
                queue.expire_stale(reclaim_ttl)
            time.sleep(poll_interval)
            continue
        idle = 0
        lease = claim.lease
        cell = cells.get(lease.cell_key)
        if cell is None or lease.stop > len(cell.plan.specs):
            raise FFISError(
                f"worker {worker_id} claimed lease {lease.lease_id} "
                f"(attempt {lease.attempt}), which names "
                f"{lease.cell_key}[{lease.start}:{lease.stop}] -- a "
                "range this plan does not contain; the queue "
                "manifest check should have refused this queue")
        writer: Optional[_SegmentWriter] = None
        try:
            writer = _SegmentWriter(queue, worker_id, lease.lease_id)
            context = cell.plan.context
            specs = cell.plan.specs[lease.start:lease.stop]
            # Same replay-locality trick as the fused sweep: runs that
            # restore the same golden snapshot execute back to back.
            # Segment order is free -- the merge step rewrites records
            # in interleaved plan order regardless.
            for spec in _boundary_sorted(context, specs):
                record = execute_run_spec(context, spec)
                writer.emit(record, lease.campaign_id)
                queue.heartbeat(claim)
                stats.runs += 1
            writer.publish()
            queue.complete(claim)
            stats.leases += 1
            if lease.attempt > 0:
                stats.retries += 1
        except ChaosCrash:
            raise  # the simulated SIGKILL: die without settling anything
        except OSError as exc:
            # Infrastructure fault the retry layer could not absorb:
            # give the lease back (reassign or quarantine) and move on.
            # Application failures never reach here -- execute_run_spec
            # already folds them into CRASH records.
            stats.failures += 1
            queue.fail(claim, f"{type(exc).__name__}: {exc}")
        finally:
            if writer is not None:
                writer.close()
    return stats
