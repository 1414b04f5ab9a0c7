"""Reassembling per-worker shards into the campaign's records.

Workers publish records in whatever order their leases arrive; the
merge step erases that history.  It streams every shard segment (never
holding more than one line in memory), deduplicates re-executed
``(campaign, run index)`` pairs -- runs are deterministic in their
spec, so the copies are identical and dropping all but the first is
lossless -- checks that every planned run is accounted for, and
returns each cell's records in run-index order.  The fleet executor
yields them to :func:`~repro.core.engine.sweep.execute_sweep`, which
writes them in the **interleaved plan order** it emits for every
backend, so the checkpoint is byte-identical to the one a ``workers=1``
serial execution would have written: same lines, same stamps, same
order.  Nothing downstream can tell the campaign was distributed.

``partial=True`` is the degraded-completion mode: a campaign that
settled around quarantined leases merges everything it *does* have and
names the holes in :attr:`MergeStats.holes` instead of raising.  Holes
are never silent: full mode raises on them, partial mode names every
one, and the fleet reports them to the sweep, which writes a hole
receipt beside the checkpoint.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine.sink import merge_shard_records
from repro.core.engine.sweep import SweepPlan
from repro.core.outcomes import RunRecord
from repro.errors import FFISError


@dataclass(frozen=True)
class MergeStats:
    """Accounting for one shard merge."""

    total: int       #: records in the merged result
    duplicates: int  #: re-executed lines dropped by dedup
    shards: int      #: shard files that existed and were read
    #: ``cell:run_index`` pairs planned but found in no shard --
    #: nonempty only under ``partial=True`` (full merges raise).
    holes: Tuple[str, ...] = ()


def _stamp_of(plan: SweepPlan) -> Dict[str, Optional[str]]:
    stamps = {cell.key: cell.campaign_id for cell in plan.cells}
    if len(plan.cells) > 1 and any(s is None for s in stamps.values()):
        unstamped = sorted(k for k, s in stamps.items() if s is None)
        raise FFISError(
            f"cells {unstamped} have no campaign_id; multi-cell shards "
            "need every record stamped to be mergeable")
    return stamps


def merge_shards(plan: SweepPlan, shard_paths: Sequence[str], *,
                 partial: bool = False,
                 ) -> Tuple[Dict[str, List[RunRecord]], MergeStats]:
    """Merge worker shards into per-cell records, in run-index order.

    Every planned ``(cell, run index)`` pair must appear in some shard;
    a hole means a lease was lost rather than reassigned (or a shard
    file is missing), and silently returning a shrunken campaign would
    be the exact corruption the lease protocol exists to prevent -- so
    holes raise, unless ``partial=True`` turns them into
    :attr:`MergeStats.holes` for the caller to report.
    """
    stamps = _stamp_of(plan)
    existing = [p for p in shard_paths if os.path.exists(p)]
    groups, duplicates = merge_shard_records(existing)
    merged: Dict[str, List[RunRecord]] = {}
    missing: List[str] = []
    for cell in plan.cells:
        by_index = groups.get(stamps[cell.key], {})
        records: List[RunRecord] = []
        for spec in cell.plan.specs:
            record = by_index.get(spec.run_index)
            if record is None:
                missing.append(f"{cell.key}:{spec.run_index}")
            else:
                records.append(record)
        # Same final ordering contract as execute_sweep's result.
        records.sort(key=lambda record: record.run_index)
        merged[cell.key] = records
    if missing and not partial:
        shown = ", ".join(missing[:8])
        more = f" (+{len(missing) - 8} more)" if len(missing) > 8 else ""
        # Shard filenames carry the worker ids that wrote them, so a
        # postmortem can tell "worker never ran" from "lease lost".
        shards = ", ".join(os.path.basename(p) for p in existing) or "none"
        raise FFISError(
            f"shard merge is missing {len(missing)} planned runs: "
            f"{shown}{more}; shards read: {shards}; the campaign is "
            "incomplete -- keep the queue directory and resume it "
            "instead of merging (or merge partial=True to get the "
            "completed cells with every hole named)")
    known = {stamps[cell.key] for cell in plan.cells}
    strays = sorted(str(s) for s in groups if s not in known)
    if strays:
        raise FFISError(
            f"shards contain records stamped {strays}, which no cell of "
            "this plan owns; refusing to merge unrelated science")
    stats = MergeStats(
        total=sum(len(records) for records in merged.values()),
        duplicates=duplicates, shards=len(existing),
        holes=tuple(missing))
    return merged, stats
