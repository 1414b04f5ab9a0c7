"""Pluggable executors: how a sweep's specs actually get executed.

The :class:`Executor` ABC is the swappable backend seam, and its one
protocol is ``map_tagged``: run a sweep plan's ``(cell key, spec)``
pairs, each under its cell's execution context, and yield one ``(key,
record)`` pair per item, in any order.  That is how many campaigns
share one backend (one pool initialization, interleaved dispatch)
instead of running back to back; a single campaign is a one-cell
sweep.  Runs are deterministic in their spec, so every backend yields
the same records, and :func:`~repro.core.engine.sweep.execute_sweep`
-- the one owner of checkpointing, ordering and resume -- treats them
all alike.  A backend that settles around lost runs names them on its
:attr:`Executor.report`.  Every backend executes its items in windows
through :func:`~repro.core.engine.runner.execute_window` -- the serial
loop a window of
:data:`~repro.core.engine.sweep.BOUNDARY_SORT_WINDOW` items at a time,
a pool worker its chunk, a fleet worker its lease -- so runs that park
in a window's first pass (a replayed QMCPACK run at its DMC projection)
execute together in its second.

:class:`SerialExecutor` is the reference implementation -- an
in-process loop over windows.  The lease-queue fleet
(:class:`~repro.core.engine.dist.coordinator.FleetExecutor`) is the
third backend.  :class:`ParallelExecutor` fans the same items out
over a :class:`concurrent.futures.ProcessPoolExecutor` using a
**capture-then-fork** discipline: the parent finishes all fault-free
work (profiles, golden captures, replay images) *before* the pool
exists, publishes the execution payload -- contexts plus the full
materialized work list -- in a process-global registry, and spawns the
workers with the ``fork`` start method so they inherit it through
copy-on-write page sharing.  Task submissions are then just ``(start,
stop)`` index ranges into the inherited work list: per-task IPC cost is
a few dozen bytes regardless of how large the golden
``ReplayImage``\\ s are.

Where ``fork`` is unavailable (spawn-only platforms), the payload ships
once per worker through the pool initializer -- amortized O(workers),
not O(chunks) -- and the range-based submissions stay identical.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, Optional, Tuple

from repro.core.outcomes import RunRecord
from repro.errors import ConfigError

#: Parent-side registry of published payloads, keyed by a small integer
#: token.  A pool created with the ``fork`` start method inherits this
#: module global through the fork's copy-on-write address space, so the
#: worker initializer receives only the token and resolves the payload
#: -- contexts, golden records, replay images, and the materialized work
#: list -- without a single pickle byte crossing the pipe.
_FORK_REGISTRY: dict = {}
_fork_tokens = itertools.count(1)

#: Worker-side state installed by :func:`_init_worker`:
#: ``(contexts, items)``.
_WORKER_STATE = None


def _init_worker(token, shipped) -> None:
    """Install the worker's payload.

    ``fork`` pools pass only *token* (the payload is inherited via
    :data:`_FORK_REGISTRY`); spawn pools pass the payload itself as
    *shipped*, pickled exactly once per worker by the initializer
    machinery rather than once per task.
    """
    global _WORKER_STATE
    _WORKER_STATE = shipped if shipped is not None else _FORK_REGISTRY[token]
    _place_worker()


def _place_worker() -> None:
    """Start this forked worker on its own CPU, then release it.

    Pool workers call it from their initializer, and the fleet's local
    workers from their fork target before they drain the lease queue.
    Workers fork from one parent and are woken by it, and a scheduler
    may keep them stacked on the parent's CPU for a second or more
    before it balances them out (on a 2-vCPU host, after idle, the
    first ~1.5 s of a 2-worker pool ran on one CPU).  Moving worker
    *k* (multiprocessing's child ordinal) to the *k*-th allowed CPU,
    round robin, and then restoring the full mask spreads the pool from
    its first task without pinning it: the scheduler stays free to
    migrate it afterwards.  Placement never affects records.
    """
    identity = multiprocessing.current_process()._identity
    if not identity or not hasattr(os, "sched_setaffinity"):
        return                          # not a forked child, or no affinity API
    allowed = sorted(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {allowed[identity[-1] % len(allowed)]})
        os.sched_setaffinity(0, allowed)
    except OSError:                     # a CPU went away: placement is a hint
        pass


def _allowed_cpus() -> int:
    """How many CPUs this process may run on (its affinity mask, where
    the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _contexts(plan) -> dict:
    """Each cell's execution context, by cell key."""
    return {cell.key: cell.plan.context for cell in plan.cells}


def _run_span(start: int, stop: int) -> list:
    """Execute work items ``[start, stop)`` against the worker state, as
    one execution window."""
    from repro.core.engine.runner import execute_window

    contexts, items = _WORKER_STATE
    return list(execute_window(contexts, items[start:stop]))


class Executor(ABC):
    """Strategy for executing the specs of a sweep's cells."""

    #: ``None`` for a backend that yields every item.  One that settles
    #: around lost runs sets it, before its stream ends, to a
    #: :class:`~repro.core.engine.dist.coordinator.DegradationReport`
    #: whose ``holes`` name each item it did not yield.
    report = None

    @abstractmethod
    def map_tagged(self, plan, items: Iterable[tuple]
                   ) -> Iterator[Tuple[str, RunRecord]]:
        """Yield ``(key, record)`` once per ``(key, spec)`` item, in any
        order.

        Each item's spec executes under the context of *plan*'s cell
        ``key`` (*plan* is a :class:`~repro.core.engine.sweep.SweepPlan`);
        one executor (and, for the parallel backend, one worker pool)
        serves every cell of a fused sweep.
        """


class SerialExecutor(Executor):
    """The reference backend: execute specs in process, one execution
    window of :data:`~repro.core.engine.sweep.BOUNDARY_SORT_WINDOW` items
    after another.  A window yields its records as its runs finish, so
    the runs it parks come last: records follow item order only across
    windows."""

    def map_tagged(self, plan, items) -> Iterator[Tuple[str, RunRecord]]:
        from repro.core.engine.runner import execute_window
        from repro.core.engine.sweep import BOUNDARY_SORT_WINDOW

        contexts = _contexts(plan)
        items = iter(items)
        while True:
            window = list(itertools.islice(items, BOUNDARY_SORT_WINDOW))
            if not window:
                return
            yield from execute_window(contexts, window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Capture-then-fork process pool for embarrassingly parallel runs.

    The parent must finish golden capture before calling ``map_tagged``
    (planners already guarantee this: a plan carries its golden
    record).  The full payload -- execution contexts plus the
    materialized work list -- is published to :data:`_FORK_REGISTRY`
    before the pool starts:

    * ``fork`` start method (preferred): workers inherit the payload by
      page-sharing; the initializer receives a registry token only.
    * spawn/forkserver: the payload ships through the initializer
      arguments, pickled once per worker (O(workers), not O(chunks)).

    Either way, a task submission is a ``(start, stop)`` index range --
    its pickle size is independent of the golden image size, which is
    what makes prefix-replayed sub-millisecond runs worth distributing.

    Dispatch is **chunked**: ``chunk_size`` specs per future amortize
    queue wakeups and future bookkeeping.  ``chunk_size=None`` adapts to
    the plan: ``max(1, n_items // (workers * 4))``, so tiny plans spread
    across all workers instead of serializing onto one.  A worker
    executes its chunk as one execution window
    (:func:`~repro.core.engine.runner.execute_window`).  Records stream
    back per chunk and are yielded in chunk order, so chunking is
    invisible to every consumer.

    Submission is windowed: at most ``workers * IN_FLIGHT_PER_WORKER``
    chunk futures exist at any moment, keeping resident futures
    O(workers) for arbitrarily long plans.

    Each worker starts on its own CPU (:func:`_place_worker`), so a short
    plan does not wait for the scheduler to spread the pool.

    The pool forks at most one process per CPU the parent may run on
    (:func:`_allowed_cpus`); chunking and the in-flight window still
    follow the requested ``workers``.  A forked child's first chunk pays
    the page faults of first touching a run's working set, so children
    beyond the CPU count add that cost without a CPU to absorb it --
    which matters once runs take milliseconds.
    """

    #: In-flight futures allowed per worker.  Enough to keep every
    #: worker busy while the parent consumes results; small enough that
    #: resident futures stay O(workers) for arbitrarily long plans.
    IN_FLIGHT_PER_WORKER = 4

    #: Ceiling for the adaptive chunk size: a killed sweep's checkpoint
    #: loses at most the in-flight chunks, so runaway chunk sizes on
    #: huge plans would turn kill/resume into a blunt instrument.
    MAX_ADAPTIVE_CHUNK_SIZE = 64

    def __init__(self, workers: int,
                 chunk_size: Optional[int] = None,
                 start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        if start_method is not None and \
                start_method not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                f"start method {start_method!r} not available here "
                f"(have {multiprocessing.get_all_start_methods()})")
        self.workers = workers
        self.chunk_size = chunk_size
        self.start_method = start_method

    def _mp_context(self):
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _chunk_for(self, n_items: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, min(self.MAX_ADAPTIVE_CHUNK_SIZE,
                          n_items // (self.workers * 4)))

    def map_tagged(self, plan, items) -> Iterator[Tuple[str, RunRecord]]:
        items = list(items)
        if not items:
            return
        mp_context = self._mp_context()
        payload = (_contexts(plan), items)
        token = next(_fork_tokens)
        if mp_context.get_start_method() == "fork":
            # Publish before the pool exists: workers fork at first
            # submission and inherit the registry as it stands then.
            _FORK_REGISTRY[token] = payload
            initargs = (token, None)
        else:
            initargs = (None, payload)
        chunk = self._chunk_for(len(items))
        pool = ProcessPoolExecutor(max_workers=min(self.workers,
                                                   _allowed_cpus()),
                                   mp_context=mp_context,
                                   initializer=_init_worker,
                                   initargs=initargs)
        window = self.workers * self.IN_FLIGHT_PER_WORKER
        pending = deque()
        drained = False
        try:
            for start in range(0, len(items), chunk):
                stop = min(start + chunk, len(items))
                pending.append(pool.submit(_run_span, start, stop))
                if len(pending) >= window:
                    yield from pending.popleft().result()
            while pending:
                yield from pending.popleft().result()
            drained = True
        finally:
            if drained:
                # Every run is back: wait for the workers to exit, so no
                # pool thread outlives the map to write to the pool's
                # closed wakeup pipe at interpreter exit.
                pool.shutdown(wait=True)
            else:
                # An abandoned iteration (Ctrl-C, sink failure) must not
                # block on -- or silently discard -- the not-yet-started
                # runs: cancel them and return as soon as the in-flight
                # ones finish.  Resume re-executes whatever was cancelled.
                pool.shutdown(wait=False, cancel_futures=True)
            _FORK_REGISTRY.pop(token, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ParallelExecutor(workers={self.workers}, "
                f"chunk_size={self.chunk_size}, "
                f"start_method={self.start_method})")


def make_executor(workers: int,
                  chunk_size: Optional[int] = None) -> Executor:
    """The default backend for a worker count (1 == serial)."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return SerialExecutor()
    return ParallelExecutor(workers, chunk_size=chunk_size)
