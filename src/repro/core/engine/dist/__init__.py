"""Distributed campaign execution: leases, a filesystem queue, shards.

The paper's campaigns are thousands of independent runs per cell --
embarrassingly parallel, but PR 6's process pool stops at one host.
This package generalizes its ``(start, stop)`` range payloads into
**leases** handed out through a shared queue directory, so any number
of worker processes on any number of hosts that mount the directory can
drain one campaign:

* :mod:`~repro.core.engine.dist.lease` -- the work unit (cell x
  contiguous run-range) and the plan-identity manifest workers verify;
* :mod:`~repro.core.engine.dist.queue` -- the rename-atomic filesystem
  queue: claims, heartbeats, expiry, completion, quarantine;
* :mod:`~repro.core.engine.dist.worker` -- the claim/execute/stream
  loop publishing per-lease stamped JSONL segments atomically;
* :mod:`~repro.core.engine.dist.merge` -- shard reassembly: dedup by
  ``(campaign, run index)``, a completeness check, and plan-order
  records (or a ``partial`` merge that names every hole);
* :mod:`~repro.core.engine.dist.coordinator` -- the lease lifecycle,
  :class:`FleetExecutor` (the one coordinator loop behind the
  :class:`~repro.core.engine.executor.Executor` seam: forked local
  workers, or ``workers=0`` for a fleet that attaches from any host),
  and the degradation ladder that finishes campaigns whose local
  workers keep dying;
* :mod:`~repro.core.engine.dist.chaos` -- the injectable
  :class:`QueueIO` filesystem seam and the seeded, deterministic
  :class:`FaultyIO` fault injector (the paper's methodology, pointed
  at this engine);
* :mod:`~repro.core.engine.dist.retry` -- bounded exponential backoff
  with deterministic jitter for transient queue I/O.

The fleet is one more backend of
:func:`~repro.core.engine.sweep.execute_sweep`
(``execute_sweep(plan, executor=FleetExecutor(root, ...))``), which
writes, orders and resumes its records as it does every backend's.
The failure model is crash-only: SIGKILL a worker at any instant and
its lease expires, is reassigned, and re-executes; determinism makes
the duplicate records identical and the merge drops them.  Nothing is
lost, nothing is double-counted, and the checkpoint cannot be told
apart from a ``workers=1`` serial run.  When a fault is *persistent*
rather than crash-shaped -- a poison lease, a full disk, a flaky mount
-- the queue quarantines, the coordinator degrades, and the campaign
still completes with every hole named.
"""

from repro.core.engine.dist.chaos import (
    ChaosCrash,
    ChaosEvent,
    FaultSpec,
    FaultyIO,
    QueueIO,
)
from repro.core.engine.dist.coordinator import (
    Coordinator,
    DegradationReport,
    FleetExecutor,
)
from repro.core.engine.dist.lease import (
    PROTOCOL_VERSION,
    Lease,
    default_lease_runs,
    plan_manifest,
    shard_plan,
    verify_manifest,
)
from repro.core.engine.dist.merge import MergeStats, merge_shards
from repro.core.engine.dist.queue import (
    DEFAULT_QUARANTINE_AFTER,
    Claim,
    FileQueue,
)
from repro.core.engine.dist.retry import (
    DEFAULT_RETRY,
    TRANSIENT_ERRNOS,
    RetryPolicy,
    retry_io,
)
from repro.core.engine.dist.worker import WorkerStats, run_worker

__all__ = [
    "ChaosCrash",
    "ChaosEvent",
    "Claim",
    "Coordinator",
    "DEFAULT_QUARANTINE_AFTER",
    "DEFAULT_RETRY",
    "DegradationReport",
    "FaultSpec",
    "FaultyIO",
    "FileQueue",
    "FleetExecutor",
    "Lease",
    "MergeStats",
    "PROTOCOL_VERSION",
    "QueueIO",
    "RetryPolicy",
    "TRANSIENT_ERRNOS",
    "WorkerStats",
    "default_lease_runs",
    "merge_shards",
    "plan_manifest",
    "retry_io",
    "run_worker",
    "shard_plan",
    "verify_manifest",
]
