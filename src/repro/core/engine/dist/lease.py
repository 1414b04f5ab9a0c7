"""Leases: the unit of distributed work, as one serializable value.

A lease names a **cell x contiguous run-range** of a
:class:`~repro.core.engine.sweep.SweepPlan` -- exactly the ``(start,
stop)`` range payloads the capture-then-fork executor ships to pool
workers (PR 6), generalized across process and host boundaries.  The
range indexes *positions* in the cell's spec tuple, not run indices, so
any worker that rebuilt the same plan from the same spec resolves a
lease to the same specs.

Leases are plain JSON-able values; the queue stores one file per lease
and the coordinator reassigns an expired lease by re-posting the same
value with ``attempt`` bumped.  ``plan_manifest``/``verify_manifest``
pin the plan identity (cell keys, campaign stamps, spec counts) so a
worker that rebuilt a *different* plan -- wrong seed, wrong runs, wrong
study -- refuses the queue instead of silently merging unrelated
science, the same contract the checkpoint loader enforces per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import FFISError

#: Bump when the lease/manifest layout changes meaning; workers refuse
#: queues written by a newer protocol instead of misreading them.
#: v2: adds the ``quarantine/`` state and the manifest's
#: ``quarantine_after`` attempt budget -- a v1 worker would wait
#: forever on a campaign that settled around a quarantined lease.
#: v3: a published segment settles its lease and the ``done/`` state is
#: gone -- a v2 worker would wait forever for ``done/`` records, and a
#: v2 queue's settled leases have no meaning here.
PROTOCOL_VERSION = 3


@dataclass(frozen=True)
class Lease:
    """One grant of work: ``plan.cells[cell_key].plan.specs[start:stop]``.

    ``lease_id`` is the queue filename stem (stable across
    reassignments); ``attempt`` counts how many times the lease has
    been (re)posted, so shards and logs can tell a re-execution from
    the original grant.
    """

    lease_id: str
    cell_key: str
    campaign_id: Optional[str]
    start: int
    stop: int
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise FFISError(
                f"lease {self.lease_id}: empty or negative range "
                f"[{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lease_id": self.lease_id,
            "cell_key": self.cell_key,
            "campaign_id": self.campaign_id,
            "start": self.start,
            "stop": self.stop,
            "attempt": self.attempt,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "Lease":
        try:
            return cls(lease_id=str(raw["lease_id"]),
                       cell_key=str(raw["cell_key"]),
                       campaign_id=raw.get("campaign_id"),
                       start=int(raw["start"]), stop=int(raw["stop"]),
                       attempt=int(raw.get("attempt", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise FFISError(f"malformed lease payload {raw!r}: {exc}") from exc

    def reassigned(self) -> "Lease":
        """The same grant, one attempt later (expiry re-post)."""
        return Lease(lease_id=self.lease_id, cell_key=self.cell_key,
                     campaign_id=self.campaign_id, start=self.start,
                     stop=self.stop, attempt=self.attempt + 1)


def shard_plan(plan, lease_runs: int) -> Tuple[Lease, ...]:
    """Cut every cell of *plan* into contiguous ranges of at most
    ``lease_runs`` specs, in plan order.

    Smaller leases mean finer-grained failure recovery (a dead worker
    forfeits at most one range) at the price of more queue round-trips
    -- the same trade the executor's ``chunk_size`` makes, lifted to
    the fleet.
    """
    if lease_runs < 1:
        raise FFISError(f"lease_runs must be >= 1, got {lease_runs}")
    leases = []
    seq = 0
    for cell in plan.cells:
        n = len(cell.plan.specs)
        for start in range(0, n, lease_runs):
            leases.append(Lease(
                lease_id=f"lease-{seq:05d}",
                cell_key=cell.key,
                campaign_id=cell.campaign_id,
                start=start,
                stop=min(start + lease_runs, n)))
            seq += 1
    return tuple(leases)


def default_lease_runs(plan, workers: int) -> int:
    """Adaptive lease size: every worker gets several leases (so a dead
    one forfeits a fraction of its share, not all of it), capped like
    the executor's adaptive chunks so kill/recovery stays fine-grained
    on huge plans."""
    from repro.core.engine.executor import ParallelExecutor

    per_worker = max(1, len(plan) // (max(1, workers) * 4))
    return min(ParallelExecutor.MAX_ADAPTIVE_CHUNK_SIZE, per_worker)


def plan_manifest(plan) -> Dict[str, Any]:
    """The plan identity a queue pins and every worker must match."""
    return {
        "protocol": PROTOCOL_VERSION,
        "cells": [
            {"key": cell.key, "campaign_id": cell.campaign_id,
             "runs": len(cell.plan.specs)}
            for cell in plan.cells],
    }


def verify_manifest(plan, manifest: Dict[str, Any], where: str) -> None:
    """Refuse a queue whose manifest does not match *plan* exactly."""
    protocol = manifest.get("protocol")
    if protocol != PROTOCOL_VERSION:
        raise FFISError(
            f"{where}: queue speaks lease protocol {protocol!r}; this "
            f"build speaks v{PROTOCOL_VERSION}")
    expected = plan_manifest(plan)["cells"]
    actual = manifest.get("cells")
    if actual != expected:
        raise FFISError(
            f"{where}: queue was posted for a different plan "
            f"(queue cells {actual!r} != this plan's {expected!r}); "
            "refusing to merge unrelated science -- point the worker "
            "at the study the coordinator is serving")
