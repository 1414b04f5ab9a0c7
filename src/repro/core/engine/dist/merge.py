"""Reassembling per-worker shards into the one true checkpoint.

Workers publish records in whatever order their leases arrive; the
merge step erases that history.  It streams every shard segment (never
holding more than one line in memory), deduplicates re-executed
``(campaign, run index)`` pairs -- runs are deterministic in their
spec, so the copies are identical and dropping all but the first is
lossless -- checks that every planned run is accounted for, and
rewrites the records in the **interleaved plan order** the fused sweep
itself emits.  The result is byte-identical to the checkpoint a
``workers=1`` serial execution would have written: same lines, same
stamps, same order.  Nothing downstream can tell the campaign was
distributed.

``partial=True`` is the degraded-completion mode: a campaign that
settled around quarantined leases merges everything it *does* have --
still byte-identical for the completed runs -- and reports the holes in
a machine-readable :class:`HoleReport` instead of raising.  Holes are
never silent: full mode raises on them, partial mode names every one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.engine.sink import JsonlSink, merge_shard_records
from repro.core.engine.sweep import SweepPlan, _interleaved
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


@dataclass(frozen=True)
class HoleReport:
    """Machine-readable account of what a partial merge is missing."""

    #: every planned-but-absent run, as ``cell:run_index``
    missing: Tuple[str, ...]
    #: the queue's quarantine diagnostics (poison + damaged leases)
    quarantined: Tuple[Dict[str, Any], ...] = ()

    @property
    def complete(self) -> bool:
        return not self.missing

    def to_dict(self) -> Dict[str, Any]:
        return {
            "complete": self.complete,
            "missing_runs": list(self.missing),
            "missing_count": len(self.missing),
            "quarantined": [dict(q) for q in self.quarantined],
        }


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
                 extra: Optional[Dict[Optional[str],
                                      Dict[int, RunRecord]]] = None,
                 ) -> Tuple[Dict[str, List[RunRecord]], MergeStats]:
    """Merge worker shards into per-cell records, in run-index order.

    Every planned ``(cell, run index)`` pair must appear in some shard;
    a hole means a lease was lost rather than reassigned (or a shard
    file is missing), and silently returning a shrunken campaign would
    be the exact corruption the lease protocol exists to prevent -- so
    holes raise, unless ``partial=True`` turns them into
    :attr:`MergeStats.holes` for the caller to report.

    *extra* supplies records recovered outside the shard files -- the
    coordinator's degraded in-process drain -- keyed like the shard
    groups (``{campaign stamp: {run_index: record}}``); shard records
    win ties, since a duplicate pair is byte-identical by determinism.
    """
    stamps = _stamp_of(plan)
    existing = [p for p in shard_paths if os.path.exists(p)]
    groups, duplicates = merge_shard_records(existing)
    if extra:
        for stamped, by_index in extra.items():
            cell_group = groups.setdefault(stamped, {})
            for run_index, record in by_index.items():
                if run_index in cell_group:
                    duplicates += 1
                else:
                    cell_group[run_index] = record
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
            "completed cells plus a hole report)")
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


def merge_and_write(plan: SweepPlan, shard_paths: Sequence[str],
                    results_path: str, *,
                    overwrite: bool = False,
                    partial: bool = False,
                    extra: Optional[Dict[Optional[str],
                                         Dict[int, RunRecord]]] = None,
                    quarantined: Sequence[Dict[str, Any]] = (),
                    holes_path: Optional[str] = None,
                    ) -> Tuple[Dict[str, List[RunRecord]], MergeStats]:
    """Merge the shards once and write the merged checkpoint,
    byte-identical to serial execution; returns what
    :func:`merge_shards` returns.

    Records are emitted through the same ``format_stamped_line`` path,
    in the same interleaved plan order, with the same per-cell stamps
    as :func:`~repro.core.engine.sweep.execute_sweep` -- byte identity
    by construction, not by accident.  The file is written to a
    temporary sibling and atomically renamed into place, so a crash
    mid-merge never leaves a half-written checkpoint where a complete
    one was promised.

    Under ``partial=True`` the completed runs are still emitted
    byte-identically (missing pairs are skipped, never invented) and a
    :class:`HoleReport` -- including the queue's *quarantined*
    diagnostics -- is written as JSON beside the results (at
    *holes_path*, default ``<results>.holes.json``), even when there
    are no holes: the report's ``complete`` flag is the receipt.
    """
    if not overwrite and os.path.exists(results_path) \
            and os.path.getsize(results_path):
        raise FFISError(
            f"{results_path} already contains results; merge to a fresh "
            "--out path (or pass overwrite=True) instead of clobbering "
            "completed runs")
    merged, stats = merge_shards(plan, shard_paths, partial=partial,
                                 extra=extra)
    by_pair = {
        (cell.key, record.run_index): record
        for cell in plan.cells
        for record in merged[cell.key]}
    stamps = {cell.key: cell.campaign_id for cell in plan.cells}
    tmp = results_path + ".merging"
    sink = JsonlSink(tmp)
    try:
        for key, spec in _interleaved(
                [(cell.key, cell.plan.specs) for cell in plan.cells]):
            record = by_pair.get((key, spec.run_index))
            if record is not None:
                sink.emit_stamped(record, stamps[key])
    finally:
        sink.close()
    os.replace(tmp, results_path)
    if partial:
        report = HoleReport(missing=stats.holes,
                            quarantined=tuple(quarantined))
        path = holes_path if holes_path is not None \
            else results_path + ".holes.json"
        tmp_report = path + ".tmp"
        with open(tmp_report, "w", encoding="utf-8") as f:
            json.dump(report.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp_report, path)
    return merged, stats
