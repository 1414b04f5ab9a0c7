"""Fused multi-campaign sweeps: many cells, one engine execution.

The paper's headline results are *grids* of campaigns -- Fig. 7 alone is
18 cells ({NYX, QMC, MT1..MT4} x {BF, SW, DW}) -- yet neighbouring cells
share almost all of their fault-free work: every cell over the same
application re-profiles the same primitive counts and re-captures the
same golden outputs for bit-identical results.  A :class:`SweepPlan`
fuses many campaign plans into one execution:

* a shared :class:`ProfileGoldenCache` keyed by application identity,
  so each distinct app configuration is golden-captured exactly once
  per sweep, and every cell derives its profile or metadata-write site
  from that capture -- the same amortization FFIS applies to its one
  fault-free profile across all injections, lifted to the grid;
* one **multiplexed JSONL checkpoint**: every line carries its cell's
  campaign stamp, so a killed sweep resumes by re-executing only the
  missing ``(cell, run index)`` pairs, and a checkpoint from an
  unrelated sweep is refused rather than merged;
* **interleaved dispatch** of all cells' specs through a single
  executor (and, for ``workers > 1``, a single worker pool) instead of
  one sequential pool per cell.

A single-cell sweep is exactly a classic campaign execution --
:func:`repro.core.engine.runner.execute_plan` is implemented on top of
this module -- so campaign- and sweep-level checkpoints share one
on-disk format and one resume implementation.  The same holds across
backends: :func:`execute_sweep` writes, orders and resumes the records
of the serial loop, the process pool and the lease-queue fleet alike,
and is the only code that turns records into a checkpoint.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.apps.base import GoldenRecord, HpcApplication
from repro.core.engine.executor import Executor, make_executor
from repro.core.engine.plan import RunPlan, RunSpec
from repro.core.engine.sink import (
    JsonlSink,
    ResultSink,
    format_stamped_line,
    load_records_by_campaign,
    refuse_overwrite,
)
from repro.core.outcomes import RunRecord
from repro.errors import FFISError
from repro.fusefs.mount import mount

Progress = Callable[[int, int], None]


def capture_golden(app: HpcApplication, fs_factory: Callable[[], Any]
                   ) -> GoldenRecord:
    """The application's fault-free run: one golden capture on a fresh
    file system from *fs_factory*.  Every campaign kind plans from this
    one record -- the I/O profile and the metadata-write site are both
    derived from it."""
    with mount(fs_factory()) as mp:
        return app.capture_golden(mp)


class ProfileGoldenCache:
    """Shared fault-free work across the cells of one sweep.

    Cells are keyed by the *identity* of their application object (and
    file-system factory): two cells planned over the same application
    instance -- e.g. the twelve Montage stage x model cells of Fig. 7,
    or a fault cell and a metadata cell, in either order -- share one
    golden capture, however many cells plan from it.  Each cell derives
    what else it needs from that record: an I/O profile
    (:meth:`~repro.core.campaign.Campaign.profile_from_golden`) or the
    metadata-write site
    (:meth:`~repro.core.metadata_campaign.MetadataCampaign.site_from_golden`),
    so neither costs a run of its own.  :meth:`fault_free_runs` reports
    how many fault-free executions the sweep actually paid for.

    The cached golden record carries the prefix-replay snapshot set
    (:attr:`repro.apps.base.GoldenRecord.replay`), so all cells over
    one application also share a single step-boundary snapshot capture
    -- the replay engine's restore sources are amortized exactly like
    the fault-free runs themselves.
    """

    def __init__(self) -> None:
        self._goldens: Dict[tuple, Any] = {}
        # Pin keyed objects so id()-based keys stay unique for the
        # cache's lifetime.
        self._pinned: List[Any] = []
        self.golden_runs = 0

    def golden(self, app: Any, fs_factory: Any,
               compute: Callable[[], Any]) -> Any:
        """The app's golden record (one fault-free run)."""
        key = (id(app), id(fs_factory))
        if key not in self._goldens:
            self._goldens[key] = compute()
            self._pinned.append((app, fs_factory))
            self.golden_runs += 1
        return self._goldens[key]

    def fault_free_runs(self) -> int:
        """Total fault-free application executions this cache paid for."""
        return self.golden_runs


@dataclass(frozen=True)
class SweepCell:
    """One campaign of a fused sweep: a key, its plan, its identity.

    ``campaign_id`` stamps the cell's checkpoint lines; ``None`` means
    unstamped (legacy bare plans), which is only unambiguous in a
    single-cell sweep.
    """

    key: str
    plan: RunPlan
    campaign_id: Optional[str] = None

    def __len__(self) -> int:
        return len(self.plan)


@dataclass(frozen=True)
class SweepPlan:
    """Many campaign plans fused into one declarative execution."""

    cells: Tuple[SweepCell, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.cells, tuple):
            object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise FFISError("a sweep needs at least one cell")
        keys = [cell.key for cell in self.cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise FFISError(f"duplicate sweep cell keys: {dupes}")
        ids = [cell.campaign_id for cell in self.cells
               if cell.campaign_id is not None]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise FFISError(
                f"two sweep cells share a campaign identity: {dupes}; "
                "their checkpoint lines would be indistinguishable")

    def __len__(self) -> int:
        return sum(len(cell) for cell in self.cells)

    def __iter__(self) -> Iterator[SweepCell]:
        return iter(self.cells)


@dataclass
class SweepResult:
    """Per-cell records of one sweep execution, plus bookkeeping."""

    records: Dict[str, List[RunRecord]] = field(default_factory=dict)
    #: Runs actually executed by this invocation (the rest were resumed
    #: from the checkpoint).
    executed: int = 0
    elapsed_seconds: float = 0.0
    #: The executor's :attr:`~repro.core.engine.executor.Executor.report`:
    #: ``None`` for the normal path (and always for in-process
    #: backends), else the fleet's
    #: :class:`~repro.core.engine.dist.coordinator.DegradationReport`
    #: naming each fallback taken and every hole left behind.
    degradation: Optional[Any] = None

    @property
    def total(self) -> int:
        return sum(len(records) for records in self.records.values())


def _interleaved(pending: Sequence[Tuple[str, Sequence[RunSpec]]]
                 ) -> Iterator[Tuple[str, RunSpec]]:
    """Round-robin the cells' pending specs: one spec per live cell per
    round, in cell declaration order.  Every cell makes progress from
    the first scheduling round, so a killed sweep's checkpoint holds a
    usable prefix of *every* cell rather than all of cell one."""
    live = [(key, iter(specs)) for key, specs in pending if specs]
    while live:
        survivors = []
        for key, specs in live:
            spec = next(specs, None)
            if spec is not None:
                yield key, spec
                survivors.append((key, specs))
        live = survivors


#: Boundary sorting happens within consecutive windows of this many
#: specs, not across the whole cell.  Records are *emitted* in plan
#: order, so a full-cell sort would let execution race arbitrarily far
#: ahead of emission: the streaming checkpoint could still be empty
#: thousands of runs into a campaign (everything a kill would lose) and
#: the reorder buffer would grow O(cell).  A window keeps both the
#: emission lag and the buffer O(window) while same-boundary runs still
#: land back to back within it -- sized to the executor's adaptive
#: chunk ceiling so a window maps onto whole pool chunks.
BOUNDARY_SORT_WINDOW = 64


def _boundary_sorted(context, specs: Sequence[RunSpec]) -> List[RunSpec]:
    """Specs reordered for replay locality: runs binning to the same
    golden boundary become consecutive (within a bounded window), so
    the splicer restores the same snapshot back to back (warm extent
    tables, warm page cache) instead of ping-ponging across the
    boundary set.  The sort is stable, so runs sharing a boundary keep
    their plan order."""
    from repro.core.engine.replay import replay_boundary

    specs = list(specs)
    if len(specs) < 2:
        return specs
    out: List[RunSpec] = []
    for start in range(0, len(specs), BOUNDARY_SORT_WINDOW):
        window = specs[start:start + BOUNDARY_SORT_WINDOW]
        out.extend(sorted(window,
                          key=lambda spec: replay_boundary(context, spec)))
    return out


def _assign_existing(plan: SweepPlan, results_path: str
                     ) -> Tuple[Dict[str, List[RunRecord]], bool]:
    """Split a multiplexed checkpoint back into per-cell records.

    Lines stamped with an identity no cell of this sweep owns are
    refused -- resuming would otherwise silently merge unrelated
    science.  Unstamped lines are accepted only when the sweep has a
    single cell (the legacy bare-sink format); in a multi-cell sweep
    they are ambiguous and refused.
    """
    by_id = {cell.campaign_id: cell.key for cell in plan.cells
             if cell.campaign_id is not None}
    sole = plan.cells[0] if len(plan.cells) == 1 else None
    existing: Dict[str, List[RunRecord]] = {cell.key: [] for cell in plan.cells}
    had_records = False
    for stamp, records in load_records_by_campaign(results_path).items():
        had_records = had_records or bool(records)
        if stamp is not None and stamp in by_id:
            key = by_id[stamp]
        elif sole is not None and (stamp is None or sole.campaign_id is None):
            # A single-cell sweep accepts unstamped legacy lines; a
            # bare (unstamped) single-cell plan accepts any stamp, like
            # load_records(path) without an identity.
            key = sole.key
        elif stamp is None:
            raise FFISError(
                f"{results_path}: checkpoint contains unstamped lines, "
                "which cannot be attributed to a cell of a multi-cell "
                "sweep; refusing to merge (use a different --out file)")
        elif sole is not None:
            raise FFISError(
                f"{results_path}: checkpoint belongs to campaign "
                f"{stamp!r}, not {sole.campaign_id!r}; refusing to merge "
                "unrelated results (use a different --out file)")
        else:
            raise FFISError(
                f"{results_path}: checkpoint contains campaign {stamp!r}, "
                "which is not a cell of this sweep; refusing to merge "
                "unrelated results (use a different --out file)")
        existing[key].extend(records)
    return existing, had_records


def _rewrite_in_plan_order(path: str, order: Sequence[Tuple[str, int]],
                           records: Dict[str, List[RunRecord]],
                           stamps: Dict[str, Optional[str]]) -> None:
    """Rewrite a whole checkpoint in plan order, atomically: a tmp
    sibling renamed into place, so a crash leaves the old file."""
    by_pair = {(key, record.run_index): record
               for key, cell_records in records.items()
               for record in cell_records}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.writelines(format_stamped_line(by_pair[pair], stamps[pair[0]])
                     for pair in order)
    os.replace(tmp, path)


def execute_sweep(plan: SweepPlan, *,
                  workers: int = 1,
                  chunk_size: Optional[int] = None,
                  results_path: Optional[str] = None,
                  resume: bool = False,
                  progress: Optional[Progress] = None,
                  sinks: Sequence[ResultSink] = (),
                  executor: Optional[Executor] = None) -> SweepResult:
    """Execute every cell of *plan* through one executor.

    * ``executor`` is the backend -- any
      :class:`~repro.core.engine.executor.Executor`, the lease-queue
      :class:`~repro.core.engine.dist.coordinator.FleetExecutor`
      included.  Without one, ``workers`` selects it (``>1`` forks a
      single process pool serving every cell) and ``chunk_size`` tunes
      the pool's dispatch granularity (``None`` adapts to the plan
      size).
    * ``results_path`` streams each record to one multiplexed JSONL
      checkpoint, each line stamped with its cell's campaign identity.
    * ``resume=True`` reads the checkpoint first and re-executes only
      the missing ``(cell, run index)`` pairs; the resumed checkpoint
      is byte-identical to an uninterrupted sweep's.
    * ``progress(completed, total)`` counts runs across the whole sweep.
    * extra ``sinks`` consume the merged record stream (all cells).

    Dispatch order is a private optimization: within each cell, specs
    execute in replay-boundary order (consecutive runs restore the same
    golden snapshot), and a backend may yield them in any order, but
    records are **emitted** -- to the checkpoint, the sinks, and
    ``progress`` -- in the cells' interleaved plan order through a
    reorder buffer, so checkpoints stay byte-identical to the unsorted
    engine's and kill/resume semantics are unchanged.

    A backend that loses runs must name each one in its ``report``'s
    ``holes``; an unnamed missing run raises :class:`FFISError`.  The
    sweep then emits the rest, sets ``result.degradation`` to the
    report and writes its receipt beside the checkpoint
    (``<results>.holes.json``); an execution that ends whole removes
    any such receipt.  Resuming a checkpoint with gaps appends the
    filled runs after the others, so once such a checkpoint is whole
    it is rewritten in plan order.
    """
    # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
    start = time.perf_counter()
    if resume and results_path is None:
        raise FFISError("resume=True requires results_path")
    refuse_overwrite(results_path, resume)
    if results_path is not None and len(plan.cells) > 1:
        unstamped = [cell.key for cell in plan.cells
                     if cell.campaign_id is None]
        if unstamped:
            # Refuse before any run executes: the checkpoint would be
            # written but unresumable (unstamped lines are ambiguous in
            # a multi-cell sweep), stranding all the paid-for work.
            raise FFISError(
                f"cells {unstamped} have no campaign_id; a multi-cell "
                "sweep checkpoint needs every line stamped to be "
                "resumable")
    if executor is None:
        executor = make_executor(workers, chunk_size=chunk_size)

    existing: Dict[str, List[RunRecord]] = {cell.key: [] for cell in plan.cells}
    had_records = False
    if resume and os.path.exists(results_path):
        existing, had_records = _assign_existing(plan, results_path)

    result = SweepResult()
    pending: List[Tuple[str, List[RunSpec]]] = []
    stamps: Dict[str, Optional[str]] = {}
    kept_pairs = set()
    for cell in plan.cells:
        wanted = {spec.run_index for spec in cell.plan.specs}
        kept = [r for r in existing[cell.key] if r.run_index in wanted]
        done = {record.run_index for record in kept}
        pending.append((cell.key, [spec for spec in cell.plan.specs
                                   if spec.run_index not in done]))
        result.records[cell.key] = kept
        stamps[cell.key] = cell.campaign_id
        kept_pairs.update((cell.key, index) for index in done)

    # Every pair in the order an uninterrupted sweep emits it.  A killed
    # sweep leaves a prefix of it, which appending extends; any other
    # kept set (a partial fleet's holes) does not.
    order = [(key, spec.run_index) for key, spec in _interleaved(
        [(cell.key, cell.plan.specs) for cell in plan.cells])]
    gapped = set(order[:len(kept_pairs)]) != kept_pairs

    all_sinks: List[ResultSink] = list(sinks)
    checkpoint: Optional[JsonlSink] = None
    if results_path is not None:
        checkpoint = JsonlSink(results_path, append=had_records)
        all_sinks.append(checkpoint)

    total = len(plan)
    completed = sum(len(records) for records in result.records.values())
    contexts = {cell.key: cell.plan.context for cell in plan.cells}
    report = None

    def emit(key: str, record: RunRecord) -> None:
        nonlocal completed
        if checkpoint is not None:
            checkpoint.emit_stamped(record, stamps[key])
        for sink in sinks:
            sink.emit(record)
        result.records[key].append(record)
        result.executed += 1
        completed += 1
        if progress is not None:
            progress(completed, total)

    try:
        if sinks and kept_pairs:
            # Resumed records are part of this sweep's record stream: a
            # tally (or any other extra sink) over a resumed sweep must
            # see the already-completed runs too, or it silently
            # undercounts every one of them.  They replay in
            # interleaved plan order -- the order an uninterrupted
            # sweep would have emitted them -- and only through the
            # *extra* sinks: the checkpoint already holds their lines.
            kept_by_pair = {
                (key, record.run_index): record
                for key, records in result.records.items()
                for record in records}
            for pair in order:
                record = kept_by_pair.get(pair)
                if record is not None:
                    for sink in sinks:
                        sink.emit(record)
        if any(specs for _, specs in pending):
            # Emission follows the plan order; only the dispatch
            # sequence is boundary-sorted (see docstring).
            emit_order = [pair for pair in order if pair not in kept_pairs]
            dispatch = [(key, _boundary_sorted(contexts[key], specs))
                        for key, specs in pending]
            buffered: Dict[Tuple[str, int], RunRecord] = {}
            emitted = 0
            stream = executor.map_tagged(plan, _interleaved(dispatch))
            try:
                for done_key, done_record in stream:
                    buffered[(done_key, done_record.run_index)] = done_record
                    while emitted < len(emit_order) \
                            and emit_order[emitted] in buffered:
                        emit(emit_order[emitted][0],
                             buffered.pop(emit_order[emitted]))
                        emitted += 1
            finally:
                # Tear the executor down before closing the sinks so an
                # interrupted parallel sweep cancels its pending runs
                # promptly instead of racing a closed checkpoint file.
                close = getattr(stream, "close", None)
                if close is not None:
                    close()
            report = executor.report
            holes = set(report.holes) if report is not None else set()
            lost = []
            for key, index in emit_order[emitted:]:
                if (key, index) in buffered:
                    emit(key, buffered.pop((key, index)))
                elif f"{key}:{index}" not in holes:
                    lost.append(f"{key}:{index}")
            if lost:
                raise FFISError(
                    f"{type(executor).__name__} returned no record for "
                    f"{len(lost)} planned runs ({', '.join(lost[:8])}) and "
                    "named none of them as holes; refusing to shrink the "
                    "campaign silently")
    finally:
        for sink in all_sinks:
            sink.close()
    result.degradation = report
    if results_path is not None:
        receipt = results_path + ".holes.json"
        if report is not None and report.holes:
            report.write_receipt(receipt)
        else:
            if gapped:
                _rewrite_in_plan_order(results_path, order, result.records,
                                       stamps)
            if os.path.exists(receipt):
                os.unlink(receipt)
    for records in result.records.values():
        records.sort(key=lambda record: record.run_index)
    # repro: allow[R001] elapsed_seconds is reporting-only, never recorded
    result.elapsed_seconds = time.perf_counter() - start
    return result
