"""Declarative run plans: *what* a campaign wants executed.

A campaign is thousands of independent mount → inject → execute →
classify runs.  The planner side (``Campaign``, ``MetadataCampaign``)
describes each run as a :class:`RunSpec` -- a small, picklable value
object naming the fault site and the per-run RNG seed -- and bundles
them with an :class:`ExecutionContext` into a :class:`RunPlan`.  The
executor side (:mod:`repro.core.engine.executor`) then realizes the plan
serially or across worker processes; because a spec is pure data and the
per-run seed is derived by name (:class:`repro.util.rngstream.RngStream`),
the two execution styles produce record-for-record identical outcomes.
"""

from __future__ import annotations

import hashlib
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Protocol, Tuple

from repro.apps.base import GoldenRecord, HpcApplication
from repro.fusefs.vfs import FFISFileSystem

FsFactory = Callable[[], FFISFileSystem]


def golden_digest(golden: GoldenRecord) -> str:
    """Short content digest of a golden record's output bytes.

    Two campaigns over "the same app" are only the same campaign if
    their fault-free outputs are bit-identical -- the app name alone
    can't tell a 24^3 Nyx from a 64^3 one.  Checkpoint identities
    embed this digest so resume refuses such a mismatch.
    """
    h = hashlib.sha256()
    for path in sorted(golden.outputs):
        h.update(path.encode("utf-8"))
        h.update(b"\0")
        h.update(golden.outputs[path])
    return h.hexdigest()[:12]


@dataclass(frozen=True)
class RunSpec:
    """One planned fault-injection run, fully declarative and picklable.

    ``seed`` is the run's private RNG seed (already derived from the
    campaign master seed by name, so specs carry no generator state).
    The metadata-sweep fields (``byte_offset``/``bit_index``/
    ``field_name``) are ``None`` for instance-targeted campaigns.

    Multi-fault scenarios (:mod:`repro.core.scenario`) stamp the spec
    with their planned injection points (``instances``) and compact
    textual identity (``scenario``); both stay ``None`` for legacy
    single-fault plans, whose specs -- and therefore records and
    checkpoint lines -- are bit-identical to the pre-scenario engine.
    ``target_instance`` remains the first planned point for
    backward-compatible reports.
    """

    run_index: int
    seed: int = 0
    target_instance: int = -1
    phase: Optional[str] = None
    byte_offset: Optional[int] = None
    bit_index: Optional[int] = None
    field_name: Optional[str] = None
    instances: Optional[Tuple[int, ...]] = None
    scenario: Optional[str] = None

    def __post_init__(self) -> None:
        if self.instances is not None and not isinstance(self.instances, tuple):
            object.__setattr__(self, "instances", tuple(self.instances))


class ArmedHook(Protocol):
    """What :meth:`ExecutionContext.arm` must return.

    Any object with a ``fired`` flag (did the fault actually trigger?)
    and a ``note`` string (model-specific detail for the record) works;
    :class:`repro.core.injector.InjectionHook` is the canonical one.
    """

    fired: bool
    note: str


class ExecutionContext(ABC):
    """Everything a worker needs to execute any spec of one plan.

    Instances must be picklable: a :class:`ParallelExecutor` ships one
    context per worker process and then streams bare specs to it.  The
    context owns the application under test, the golden record the run
    is classified against, and the campaign-specific way of arming a
    corruption hook on a fresh file system.
    """

    #: Appended to ``detail`` when the armed fault never triggered
    #: (kept textual for backward-compatible reports; the structured
    #: truth lives in ``RunRecord.fault_fired``).
    not_fired_note: str = "[warning: fault never fired]"

    #: Prefix-replay switch: ``None`` defers to the engine default
    #: (enabled unless the ``REPRO_NO_REPLAY`` environment variable is
    #: set -- the universal escape hatch), ``False`` forces cold runs.
    replay: Optional[bool] = None

    def __init__(self, app: HpcApplication, golden: GoldenRecord,
                 fs_factory: FsFactory = FFISFileSystem) -> None:
        self.app = app
        self.golden = golden
        self.fs_factory = fs_factory

    @abstractmethod
    def arm(self, fs: FFISFileSystem, spec: RunSpec) -> ArmedHook:
        """Attach this plan's corruption hook for *spec* to a fresh fs."""

    @property
    def replay_enabled(self) -> bool:
        if self.replay is not None:
            return self.replay
        return not os.environ.get("REPRO_NO_REPLAY")

    def replay_constraint(self, spec: RunSpec):
        """The spec's :class:`repro.core.engine.replay.ReplayConstraint`.

        ``None`` (the default) means the engine cannot reason about
        this context's injection points and must execute the run cold
        -- unknown contexts are automatically replay-safe by never
        being replayed.
        """
        return None

    def post_execute(self, mp, spec: RunSpec, hook: ArmedHook) -> None:
        """At-rest seam: runs after the application's last stage and
        before classification.  The default gives hooks with a
        ``finalize`` method (at-rest decay) their primitive-free firing
        point; contexts may override for custom between-stage faults."""
        finalize = getattr(hook, "finalize", None)
        if finalize is not None:
            finalize()


@dataclass(frozen=True)
class RunPlan:
    """An execution context plus the ordered specs to run under it."""

    context: ExecutionContext
    specs: Tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)
