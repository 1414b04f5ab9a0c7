"""Distributed studies: one spec, many hosts, one merged result.

The study layer's contribution to distribution is *identity*: a
:class:`~repro.study.spec.StudySpec` is one serializable value, so a
worker on another host can rebuild the exact plan the coordinator is
serving -- same apps, same seeds, same specs -- from the spec alone,
and the queue manifest verifies the rebuild before a single run
executes.  Both forms run the one coordinator loop,
:class:`~repro.core.engine.dist.FleetExecutor`, as the backend of one
:func:`~repro.core.engine.sweep.execute_sweep` call: the local form is
``StudyPlan.execute(hosts=...)`` with forked workers, and this module
holds the cross-host form's two halves:

* :func:`serve_study` -- the coordinator half: the same loop with no
  local workers, waiting for the fleet that attaches to its queue
  (``repro study serve``);
* :func:`run_study_worker` -- the worker half: rebuild the plan from
  the spec and drain leases until the coordinator calls it
  (``repro worker``).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Mapping, Optional

from repro.core.engine import execute_sweep
from repro.core.engine.dist import (
    DEFAULT_QUARANTINE_AFTER,
    FleetExecutor,
    WorkerStats,
    default_lease_runs,
    run_worker,
)
from repro.fusefs.vfs import FFISFileSystem
from repro.study.resultset import ResultSet
from repro.study.spec import StudySpec
from repro.study.study import Study, StudyPlan


def serve_study(plan: StudyPlan, queue_root: str, *,
                lease_runs: Optional[int] = None,
                lease_ttl: float = 30.0,
                hosts: int = 2,
                results_path: Optional[str] = None,
                resume: bool = False,
                poll_interval: float = 0.5,
                timeout: Optional[float] = None,
                progress: Optional[Callable[[Dict[str, int]], None]] = None,
                quarantine_after: int = DEFAULT_QUARANTINE_AFTER
                ) -> ResultSet:
    """Coordinate a worker fleet that attaches on its own schedule.

    Runs the coordinator loop with zero local workers: post the plan's
    leases at *queue_root*, then expire stale claims and report
    ``progress(counts)`` (the queue's lease counts) once per poll until
    every lease settles, and once more after.  Workers -- started by
    hand, by a scheduler, on other hosts -- attach with ``repro worker``
    pointed at the same directory.  The shards are then merged, the
    fleet is released via the FINISHED marker, and the sweep writes the
    records to *results_path*, if given.  ``resume=True`` re-opens an
    interrupted queue and resumes the checkpoint; *hosts* only sizes
    the default lease granularity here.

    A campaign that settles around quarantined poison leases finishes
    **partially**: completed runs byte-identical to serial, holes
    written to a machine-readable receipt beside the checkpoint, and
    the result's ``degradation`` naming what is missing.
    """
    if lease_runs is None:
        lease_runs = default_lease_runs(plan.sweep, hosts)
    fleet = FleetExecutor(
        queue_root, workers=0, lease_runs=lease_runs, lease_ttl=lease_ttl,
        resume=resume, poll_interval=poll_interval, timeout=timeout,
        quarantine_after=quarantine_after, progress=progress)
    return plan.result_set(execute_sweep(
        plan.sweep, executor=fleet, results_path=results_path,
        resume=resume))


def run_study_worker(queue_root: str, spec: StudySpec, *,
                     apps: Optional[Mapping[str, object]] = None,
                     fs_factory: Callable[[], FFISFileSystem] = FFISFileSystem,
                     worker_id: Optional[str] = None,
                     poll_interval: float = 0.05,
                     reclaim_ttl: Optional[float] = None,
                     max_idle_polls: Optional[int] = None) -> WorkerStats:
    """Rebuild *spec*'s plan and drain leases from *queue_root*.

    This is the cross-host worker: it pays the plan's fault-free
    profiling/golden cost once locally (determinism makes its rebuild
    identical to the coordinator's), verifies the rebuild against the
    queue manifest, and then executes leases until the coordinator
    raises FINISHED.  ``reclaim_ttl`` lets a coordinator-less fleet
    expire dead peers' claims itself.
    """
    plan = Study(spec, apps=apps, fs_factory=fs_factory).plan()
    if worker_id is None:
        worker_id = f"host{os.getpid()}"
    return run_worker(queue_root, plan.sweep, worker_id,
                      poll_interval=poll_interval, reclaim_ttl=reclaim_ttl,
                      max_idle_polls=max_idle_polls)
