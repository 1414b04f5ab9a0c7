"""The application-under-test protocol shared by Nyx, QMCPACK, Montage.

An :class:`HpcApplication` is a deterministic callable world: given the
same construction parameters and seed, :meth:`run` performs the same I/O
through the mount it is handed (the only nondeterminism a campaign sees
is the injected fault).  ``run`` is split into named **phases** so
stage-targeted campaigns (Montage MT1..MT4) can restrict the injector to
the dynamic write-instance window of one phase -- the application itself
stays oblivious to fault injection (paper requirement R1).

Phases are further decomposed into ordered **steps** (:meth:`steps`):
each step is a named callable over ``(mount point, carry dict)``, and
consecutive steps sharing a phase name form that phase (one recorded
:class:`PhaseSpan`, one phase-end notification -- byte-identical to the
old monolithic ``run``).  The step protocol is what the prefix-replay
engine schedules against: golden capture snapshots the file system at
every step boundary (:class:`ReplayImage`), and a faulty run restores
the last boundary before its first injection point instead of
re-executing the whole prefix.  Step contract:

* a step communicates with later steps only through the file system and
  the ``carry`` dict (assign new values; never mutate a carried value in
  place -- carries are shared with golden snapshots);
* any randomness inside a step is derived by name from construction
  parameters (:class:`repro.util.rngstream.RngStream`), never threaded
  across steps, so a replayed suffix draws identical randoms;
* a step reuses golden work only through the golden-memo seam: it
  offers a product with :meth:`HpcApplication.keep_golden`, which keeps
  it on the replay image only during the golden capture, and reads it
  back with :meth:`HpcApplication.golden_memo`, which answers only in a
  replayed run, so cold execution stays the from-scratch reference;
* a step of a replayed run may defer its work to the end of its
  execution window through the window seam (:attr:`HpcApplication.window`,
  :class:`Park`), so one computation can serve every run of the window
  that reached it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.outcomes import Outcome
from repro.fusefs.mount import MountPoint
from repro.fusefs.vfs import FsImage


@dataclass(frozen=True)
class PhaseSpan:
    """Dynamic ``ffis_write`` sequence-number window [start, end) of a phase."""

    name: str
    start: int
    end: int

    @property
    def count(self) -> int:
        return self.end - self.start


#: One step of the decomposed run: ``fn(mount point, carry)``.
StepFn = Callable[[MountPoint, Dict[str, object]], None]


@dataclass(frozen=True)
class RunStep:
    """A named stage of :meth:`HpcApplication.run`.

    ``phase`` is the public phase the step belongs to; consecutive steps
    with the same phase form one :class:`PhaseSpan`.  Splitting a phase
    into several steps adds snapshot boundaries (e.g. an expensive
    compute step separated from the writes it feeds) without changing
    the recorded phases or the write windows campaigns sample from.
    """

    name: str
    phase: str
    fn: StepFn


@dataclass(frozen=True)
class StepTrace:
    """What one golden step observed and changed (by inode number).

    ``observed`` is every inode whose *content* the step read
    (``ffis_read`` targets); ``written`` every inode whose extent or
    inode image changed during the step (files written or created,
    directories whose entries changed); ``removed`` inodes that
    disappeared.  The replay engine uses these to decide whether a
    pending step can be fast-forwarded from the golden image instead of
    re-executed.
    """

    name: str
    phase: str
    ends_phase: bool
    observed: Tuple[int, ...]
    written: Tuple[int, ...]
    removed: Tuple[int, ...]


@dataclass(frozen=True)
class ReplayImage:
    """Golden step-boundary snapshots for the prefix-replay engine.

    ``boundaries[k]`` is the file-system image *before* step ``k`` (so
    ``boundaries[0]`` is the post-:meth:`~HpcApplication.prepare` state
    and ``boundaries[len(steps)]`` the final state); ``carries[k]`` the
    carry dict at the same point.  All images share extent bytes
    copy-on-write, so the whole set costs roughly one file-system image
    plus per-step deltas.  ``memos`` holds what the capture's steps kept
    for replayed runs (:meth:`HpcApplication.keep_golden`).
    """

    boundaries: Tuple[FsImage, ...]
    carries: Tuple[Mapping[str, object], ...]
    steps: Tuple[StepTrace, ...]
    memos: Mapping[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class GoldenRecord:
    """Fault-free reference captured once per campaign.

    ``outputs`` maps output paths to their exact bytes; ``analysis`` holds
    the application's post-analysis product in a bit-comparable form
    (e.g. the rendered halo catalog); ``phases`` records the write windows
    of each run phase.  ``replay`` carries the step-boundary snapshot set
    when the application speaks the step protocol and the file system can
    fork (``None`` otherwise -- the engine then always runs cold).

    ``primitive_counts`` and ``bytes_written`` are the fault-free I/O
    profile of the run -- the dynamic execution count of *every*
    primitive and the total bytes pushed through ``ffis_write`` --
    snapshotted before the capture's own output reads so they match a
    plain profiled execution exactly.  They let a campaign derive its
    :class:`~repro.core.profiler.ProfileResult` from the golden capture
    instead of paying a second fault-free run.  ``writes`` is the
    ``(offset, size)`` of every fault-free ``ffis_write``, indexed by
    its sequence number; the metadata campaign derives the penultimate
    write it sweeps from it, so that campaign needs no run of its own
    either.
    """

    outputs: Dict[str, bytes] = field(default_factory=dict)
    analysis: Dict[str, object] = field(default_factory=dict)
    phases: List[PhaseSpan] = field(default_factory=list)
    total_writes: int = 0
    primitive_counts: Dict[str, int] = field(default_factory=dict)
    bytes_written: int = 0
    writes: List[Tuple[int, int]] = field(default_factory=list)
    replay: Optional[ReplayImage] = None

    def phase(self, name: str) -> PhaseSpan:
        for span in self.phases:
            if span.name == name:
                return span
        raise KeyError(f"no phase named {name!r}")

    def phase_names(self) -> List[str]:
        return [span.name for span in self.phases]


class Park(BaseException):
    """Raised by a step to park its run in an execution window's first
    pass (:func:`repro.core.engine.runner.execute_window`): the window
    executes the run again from scratch in its second pass, when the
    step can serve every input its window parked at once.  It derives
    from ``BaseException`` so that neither the runner's crash taxonomy
    nor a step's own ``except`` clause can turn it into an outcome."""


@dataclass
class Window:
    """One execution window's state on an application.

    ``parking`` holds during the window's first pass.  ``parked`` maps
    each input a parked run left to what the step needs to serve it,
    keyed by the input's exact value (never by a hash alone);
    ``results`` holds what the second pass computed from them, under
    the same keys.  The window clears both when it ends, so no result
    outlives it.
    """

    parking: bool = True
    parked: Dict[Hashable, object] = field(default_factory=dict)
    results: Dict[Hashable, object] = field(default_factory=dict)

    def clear(self) -> None:
        self.parked.clear()
        self.results.clear()


class HpcApplication(ABC):
    """Base class for applications characterized by FFIS campaigns."""

    #: Short identifier used in reports ("nyx", "qmcpack", "montage").
    name: str = "app"

    #: The execution window of the run in flight, while
    #: :func:`~repro.core.engine.runner.execute_window` executes one of
    #: its runs; ``None`` for every other execution (a direct
    #: ``execute_run_spec`` call, the golden capture).
    window: Optional[Window] = None

    def __init__(self) -> None:
        self._phase_log: List[PhaseSpan] = []
        self._active_mp: Optional[MountPoint] = None
        # The golden-memo seam: a dict only while the capture builds the
        # replay image, and the image's memos only inside execute_from.
        self._kept: Optional[Dict[str, object]] = None
        self._memos: Mapping[str, object] = {}

    # -- phases ---------------------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Mark a named phase of :meth:`run` (for stage-targeted injection)."""
        if self._active_mp is None:
            raise RuntimeError("phase() may only be used inside run()")
        interposer = self._active_mp.fs.interposer
        start = interposer.count("ffis_write")
        try:
            yield
        finally:
            end = interposer.count("ffis_write")
            self._phase_log.append(PhaseSpan(name, start, end))
            # Between-stage seam: at-rest fault scenarios decay persisted
            # bytes here, after this stage's writes and before the next
            # stage reads them.
            interposer.notify_phase_end(name)

    @property
    def recorded_phases(self) -> List[PhaseSpan]:
        return list(self._phase_log)

    # -- the golden-memo seam ---------------------------------------------------

    @property
    def capturing_golden(self) -> bool:
        """True only while :meth:`capture_golden` builds the replay image."""
        return self._kept is not None

    def keep_golden(self, name: str, value: object) -> None:
        """Keep *value* on the replay image under *name*; a no-op outside
        the golden capture, so only golden work is ever reused."""
        if self._kept is not None:
            self._kept[name] = value

    def golden_memo(self, name: str) -> Optional[object]:
        """What the golden capture kept under *name*: answered only in a
        replayed run (:meth:`execute_from`), ``None`` anywhere else."""
        return self._memos.get(name)

    # -- the step protocol ----------------------------------------------------

    def steps(self) -> Optional[Sequence[RunStep]]:
        """The run decomposed into ordered named steps, or ``None``.

        Applications that return a step list get :meth:`run` for free
        and become eligible for prefix replay; applications that
        override :meth:`run` directly simply always execute cold.
        """
        return None

    def prepare(self, mp: MountPoint, carry: Dict[str, object]) -> None:
        """Pre-phase setup (directories); runs before the first step."""

    def run_steps(self, mp: MountPoint, carry: Dict[str, object],
                  start: int = 0,
                  next_step: Optional[Callable[[int], int]] = None) -> None:
        """Drive the step protocol from *start*.

        Phase bookkeeping matches the :meth:`phase` context manager
        byte for byte: one span and one phase-end notification per
        group of same-phase steps, emitted even when a step raises
        (crash parity).  ``next_step(i)`` is consulted after step *i*
        completes and returns the index to continue at -- the replay
        engine uses it to skip steps it fast-forwarded from the golden
        image.
        """
        steps = self.steps()
        if steps is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not define steps()")
        interposer = mp.fs.interposer
        n = len(steps)
        i = start
        span_start: Optional[int] = None
        span_phase = ""
        while i < n:
            step = steps[i]
            if span_start is None:
                span_start = interposer.count("ffis_write")
                span_phase = step.phase
            ends = (i + 1 >= n) or (steps[i + 1].phase != step.phase)
            try:
                step.fn(mp, carry)
            except BaseException:
                self._phase_log.append(PhaseSpan(
                    span_phase, span_start, interposer.count("ffis_write")))
                interposer.notify_phase_end(span_phase)
                raise
            if ends:
                self._phase_log.append(PhaseSpan(
                    span_phase, span_start, interposer.count("ffis_write")))
                interposer.notify_phase_end(span_phase)
                span_start = None
            nxt = next_step(i) if next_step is not None else i + 1
            if nxt != i + 1:
                # Fast-forwarded steps may have crossed phase ends (the
                # engine fires those notifications itself); start a
                # fresh span at the next live step.
                span_start = None
            i = nxt

    def execute_from(self, mp: MountPoint, carry: Dict[str, object],
                     start: int = 0,
                     next_step: Optional[Callable[[int], int]] = None,
                     memos: Optional[Mapping[str, object]] = None) -> None:
        """Replay entry point: execute steps ``start..`` against *mp*.

        With ``start == 0`` this is a cold execution through the step
        driver; otherwise the caller must have restored the file system
        and *carry* to the boundary before step *start*.  Steps read
        *memos*, the golden replay image's, through :meth:`golden_memo`.
        """
        self._phase_log = []
        self._active_mp = mp
        self._memos = memos or {}
        try:
            if start == 0:
                self.prepare(mp, carry)
            self.run_steps(mp, carry, start=start, next_step=next_step)
        finally:
            self._active_mp = None
            self._memos = {}

    # -- the application lifecycle ----------------------------------------------

    def execute(self, mp: MountPoint) -> None:
        """Run the application, recording phase windows."""
        self._phase_log = []
        self._active_mp = mp
        try:
            self.run(mp)
        finally:
            self._active_mp = None

    def run(self, mp: MountPoint) -> None:
        """Perform the workload's I/O through *mp* (deterministically).

        The default drives :meth:`steps`; applications without a step
        decomposition override this directly.
        """
        if self.steps() is None:
            raise NotImplementedError(
                f"{type(self).__name__} must implement run() or steps()")
        carry: Dict[str, object] = {}
        self.prepare(mp, carry)
        self.run_steps(mp, carry)

    @abstractmethod
    def output_paths(self) -> List[str]:
        """Paths of the outputs that define bit-wise 'benign'."""

    @abstractmethod
    def analyze(self, mp: MountPoint) -> Dict[str, object]:
        """Run the post-analysis, returning bit-comparable products.

        May raise (e.g. :class:`repro.errors.FormatError`); the campaign
        classifies an unhandled exception as CRASH.
        """

    @abstractmethod
    def classify(self, golden: GoldenRecord, mp: MountPoint) -> Tuple[Outcome, str]:
        """Classify a completed faulty run against the golden record.

        Returns the outcome and a human-readable detail string.  Must not
        raise for corrupted-but-readable outputs; exceptions escaping here
        are classified as CRASH by the campaign (covering the library-
        level aborts the paper counts as crashes).
        """

    # -- golden capture -------------------------------------------------------------

    def capture_golden(self, mp: MountPoint) -> GoldenRecord:
        """Run fault-free and capture outputs + analysis + phase windows.

        When the application speaks the step protocol and the mounted
        file system supports copy-on-write snapshots, the capture also
        records a :class:`ReplayImage` -- one snapshot per step boundary
        plus each step's observed/written inode sets -- which is what
        lets the campaign engine replay only the suffix of each faulty
        run.  The extra capture changes nothing observable: the I/O
        sequence, phase windows, outputs, and analysis are identical to
        a plain execution.
        """
        interposer = mp.fs.interposer
        writes: List[Tuple[int, int]] = []

        def write_log(call):
            if call.primitive == "ffis_write":
                writes.append((call.args["offset"], call.args["size"]))
            return None

        replay = None
        interposer.add_global_hook(write_log)
        try:
            if self.steps() is not None and mp.fs.supports_snapshots:
                replay = self._execute_capturing_replay(mp)
            else:
                self.execute(mp)
        finally:
            interposer.remove_global_hook(write_log)
        golden = GoldenRecord()
        golden.phases = self.recorded_phases
        golden.total_writes = interposer.count("ffis_write")
        # Snapshot the profile before our own output reads below pollute
        # the read counters: these must equal a plain profiled run.
        golden.primitive_counts = dict(interposer.counters_snapshot())
        golden.bytes_written = sum(size for _, size in writes)
        golden.writes = writes
        for path in self.output_paths():
            golden.outputs[path] = mp.read_file(path)
        golden.analysis = self.analyze(mp)
        golden.replay = replay
        return golden

    def _execute_capturing_replay(self, mp: MountPoint) -> ReplayImage:
        """Execute the step protocol, snapshotting every boundary."""
        fs = mp.fs
        steps = list(self.steps())
        observed: List[set] = [set() for _ in steps]
        cursor = {"step": 0}

        def read_tracker(call):
            if call.primitive == "ffis_read" and cursor["step"] < len(steps):
                handle = fs.open_handle(call.args["fd"])
                if handle is not None:
                    observed[cursor["step"]].add(handle.ino)
            return None

        boundaries: List[FsImage] = []
        carries: List[Dict[str, object]] = []
        carry: Dict[str, object] = {}

        def boundary(i: int) -> int:
            boundaries.append(fs.snapshot())
            carries.append(dict(carry))
            cursor["step"] = i + 1
            return i + 1

        self._phase_log = []
        self._active_mp = mp
        self._kept = {}
        fs.interposer.add_global_hook(read_tracker)
        try:
            self.prepare(mp, carry)
            boundaries.append(fs.snapshot())
            carries.append(dict(carry))
            self.run_steps(mp, carry, next_step=boundary)
        finally:
            fs.interposer.remove_global_hook(read_tracker)
            self._active_mp = None
            memos, self._kept = self._kept, None

        traces = []
        for i, step in enumerate(steps):
            written, removed = _boundary_delta(boundaries[i], boundaries[i + 1])
            ends = (i + 1 >= len(steps)) or (steps[i + 1].phase != step.phase)
            traces.append(StepTrace(name=step.name, phase=step.phase,
                                    ends_phase=ends,
                                    observed=tuple(sorted(observed[i])),
                                    written=written, removed=removed))
        return ReplayImage(boundaries=tuple(boundaries),
                           carries=tuple(carries), steps=tuple(traces),
                           memos=memos)

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def outputs_identical(golden: GoldenRecord, mp: MountPoint,
                          paths: Optional[List[str]] = None) -> bool:
        """Bit-wise comparison of faulty outputs against the golden ones."""
        for path, expected in golden.outputs.items():
            if paths is not None and path not in paths:
                continue
            if not mp.exists(path):
                return False
            if mp.read_file(path) != expected:
                return False
        return True


def _boundary_delta(prev: FsImage, cur: FsImage
                    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(written, removed)`` inode sets between two golden boundaries.

    Extent comparison is by object identity: snapshots freeze extents in
    place, so an extent object shared by both boundaries was provably
    untouched in between -- the copy-on-write fork makes this diff O(1)
    per unchanged file.
    """
    written = set()
    for ino, ext in cur.extents.items():
        if prev.extents.get(ino) is not ext:
            written.add(ino)
    for ino, image in cur.inodes.items():
        if prev.inodes.get(ino) != image:
            written.add(ino)
    removed = {ino for ino in prev.inodes if ino not in cur.inodes}
    removed |= {ino for ino in prev.extents if ino not in cur.extents}
    return tuple(sorted(written - removed)), tuple(sorted(removed))
