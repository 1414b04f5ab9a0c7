"""Executing run specs: the one mount/execute/classify loop body.

:func:`execute_run_spec` is the single implementation of the per-run
bookkeeping that ``Campaign.run_once`` and ``MetadataCampaign.run_case``
used to duplicate: arm the hook, mount a fresh file system, execute the
application, classify against the golden record, fold crashes into the
outcome taxonomy, and record whether the fault actually fired.

:func:`execute_window` is how every executor runs its items: the serial
backend a window of :data:`~repro.core.engine.sweep.BOUNDARY_SORT_WINDOW`
items at a time, a pool worker its chunk, a fleet worker its lease.  It
executes them in two passes, so that work several runs of the window
reach can be done once for all of them: in the first pass a replayed
run may *park* at a step (:class:`~repro.apps.base.Park`), and in the
second every parked run executes again from scratch, when the step can
serve all the window's parked inputs at once (a QMCPACK window projects
its diverged walker sets as one DMC batch).  Records are those of
:func:`execute_run_spec` alone; only their order within a window
changes.

:func:`execute_plan` drives a whole :class:`RunPlan` through an
executor, streaming every finished record into the result sinks (tally,
JSONL checkpoint) as it completes and skipping run indices already
present in a resumed results file.  It is implemented as a single-cell
:func:`repro.core.engine.sweep.execute_sweep`, so campaign-level and
sweep-level checkpoints share one on-disk format and one resume path.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.apps.base import HpcApplication, Park, Window
from repro.core.engine.plan import ExecutionContext, RunPlan, RunSpec
from repro.core.engine.sink import ResultSink
from repro.core.outcomes import Outcome, RunRecord
from repro.errors import FFISError
from repro.fusefs.mount import mount

Progress = Callable[[int, int], None]


def execute_run_spec(context: ExecutionContext, spec: RunSpec) -> RunRecord:
    """Execute one planned run and classify its outcome.

    This is deterministic in (context, spec): the only randomness is the
    spec's private seed, so the same spec yields the same record whether
    it runs in-process or in a pool worker.  When the context's golden
    record carries a replay image, the run starts from the last golden
    snapshot before its first injection point and fast-forwards any
    suffix steps the fault provably cannot influence
    (:mod:`repro.core.engine.replay`); the record stream is
    byte-identical to cold execution either way.
    """
    from repro.core.engine.replay import try_replay_execute

    fs = context.fs_factory()
    hook = context.arm(fs, spec)
    record = RunRecord(run_index=spec.run_index, outcome=Outcome.BENIGN,
                       target_instance=spec.target_instance,
                       phase=spec.phase, byte_offset=spec.byte_offset,
                       bit_index=spec.bit_index, field_name=spec.field_name,
                       instances=spec.instances, scenario=spec.scenario)
    try:
        with mount(fs) as mp:
            if not try_replay_execute(context, spec, fs, mp):
                context.app.execute(mp)
            # At-rest seam: scenarios that corrupt persisted bytes with
            # no primitive in flight fire here, between the last
            # application stage and its post-analysis.
            context.post_execute(mp, spec, hook)
            outcome, detail = context.app.classify(context.golden, mp)
        record.outcome = outcome
        record.detail = f"{detail}; {hook.note}" if hook.note else detail
    except FFISError:
        raise  # framework misuse is never an experimental outcome
    except Exception as exc:  # noqa: BLE001 - crash taxonomy by design
        record.outcome = Outcome.CRASH
        detail = f"{type(exc).__name__}: {exc}"
        record.detail = f"{detail}; {hook.note}" if hook.note else detail
    record.fault_fired = bool(hook.fired)
    if not record.fault_fired:
        record.detail = (record.detail + " " + context.not_fired_note).strip()
    return record


def execute_window(contexts: Dict[str, ExecutionContext],
                   items: Iterable[Tuple[str, RunSpec]]
                   ) -> Iterator[Tuple[str, RunRecord]]:
    """Execute a window of ``(cell key, spec)`` items, each under
    ``contexts[key]``, and yield one ``(key, record)`` per item.

    Pass 1 executes every item and yields its record, except for a run
    that parks: its application raised :class:`~repro.apps.base.Park`
    from a step, having left its input on the application's
    :class:`~repro.apps.base.Window`.  Pass 2 executes each parked item
    again from scratch, in item order, with the windows out of their
    parking pass, and yields its record.  Each application of the window
    has one :class:`~repro.apps.base.Window`, installed on it
    (:attr:`~repro.apps.base.HpcApplication.window`) only while one of
    its runs executes here, and cleared when the window ends, however it
    ends, so no result outlives its window.  Only parks are caught.
    """
    windows: Dict[int, Window] = {}
    parked: List[Tuple[str, RunSpec]] = []
    try:
        for key, spec in items:
            try:
                record = _execute_in_window(windows, contexts[key], spec)
            except Park:
                parked.append((key, spec))
                continue
            yield key, record
        for window in windows.values():
            window.parking = False
        for key, spec in parked:
            yield key, _execute_in_window(windows, contexts[key], spec)
    finally:
        for window in windows.values():
            window.clear()


def _execute_in_window(windows: Dict[int, Window],
                       context: ExecutionContext, spec: RunSpec) -> RunRecord:
    """:func:`execute_run_spec` with the window of the context's
    application installed on it for the run's duration."""
    app = getattr(context, "app", None)
    if not isinstance(app, HpcApplication):
        return execute_run_spec(context, spec)
    window = windows.get(id(app))
    if window is None:
        window = windows[id(app)] = Window()
    app.window = window
    try:
        return execute_run_spec(context, spec)
    finally:
        app.window = None


def execute_plan(plan: RunPlan, *,
                 workers: int = 1,
                 chunk_size: Optional[int] = None,
                 results_path: Optional[str] = None,
                 resume: bool = False,
                 campaign_id: Optional[str] = None,
                 progress: Optional[Progress] = None,
                 sinks: Sequence[ResultSink] = ()) -> List[RunRecord]:
    """Run every spec of *plan*, streaming records through the sinks.

    * ``workers`` selects the executor (``>1`` forks a process pool).
    * ``results_path`` persists each record as one JSONL line the moment
      it completes, so an interrupted campaign loses at most the runs in
      flight.
    * ``resume=True`` reads ``results_path`` first and executes only the
      run indices not already recorded there; the returned list merges
      old and new records in run order, identical to an uninterrupted
      campaign.
    * ``campaign_id`` stamps every persisted line with the campaign's
      identity (app/model/seed/...); a resume against a checkpoint
      stamped with a different identity is refused rather than merged.
    """
    from repro.core.engine.sweep import SweepCell, SweepPlan, execute_sweep

    cell = SweepCell(key="plan", plan=plan, campaign_id=campaign_id)
    result = execute_sweep(SweepPlan(cells=(cell,)),
                           workers=workers, chunk_size=chunk_size,
                           results_path=results_path,
                           resume=resume, progress=progress, sinks=sinks)
    return result.records[cell.key]
