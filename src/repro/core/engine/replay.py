"""Prefix-replay execution: restore golden state, run only what a fault
can actually change.

By design (requirement R1 transparency plus by-name RNG substreams),
every faulty run is byte-identical to the golden run up to the instant
its first injection point fires -- yet the classic engine re-executes
the whole deterministic application from an empty file system for every
run.  This module exploits the equivalence in both directions:

* **Prefix restore** -- the golden capture snapshots the file system at
  every step boundary (:class:`repro.apps.base.ReplayImage`); a run is
  *binned* to the last boundary at or before its first injection point
  and starts there via :meth:`FFISFileSystem.restore` instead of
  executing the prefix.

* **Suffix fast-forward** -- once every injection point is in the past,
  a pending step whose golden-observed inputs (and write targets) are
  bit-identical to the golden boundary state *must* reproduce the
  golden writes; the engine splices the step's golden delta onto the
  live file system (copy-on-write, O(files touched)) instead of
  re-executing it.  Fault-point awareness is exactly this check: a QMC
  fault confined to ``He.s000.scalar.dat`` never re-runs the DMC
  projection, while one that touched the walker file does, and stops at
  the first block end where its projection rejoins the golden
  trajectory kept on the replay image (likewise, a Montage fault in one
  difference image refits that image alone).

Safety is conservative and checked per run, per boundary:

* the dynamic primitive counters (plus inode/fd allocation cursors)
  must equal the golden boundary's -- any control-flow divergence
  (an absorbed ``FormatError``, a skipped tile) fails this and the run
  continues live;
* the carry dict must equal the golden boundary carry;
* scenarios declare their own :class:`ReplayConstraint`; a scenario
  without one (or an application without steps, a backend without
  snapshots, ``--no-replay``) falls back to cold execution.

Logical inode timestamps are the one deliberate exception: a suppressed
write skips its ``mtime`` tick, so a spliced run's timestamps may
differ from a cold run's.  Nothing in the experiment stack observes
them (classification reads bytes), and the record streams are asserted
byte-identical by the determinism guard in CI.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from repro.apps.base import ReplayImage, StepTrace
from repro.fusefs.vfs import FFISFileSystem


@dataclasses.dataclass(frozen=True)
class ReplayConstraint:
    """What a scenario requires of a replayed execution.

    ``points`` are the dynamic instances of ``primitive`` that must
    execute live (the injection hook fires on exact sequence numbers);
    ``notify_phase`` names a phase whose end notification must be
    emitted (at-rest decay listens for it).  An empty constraint means
    the run is fault-free until the engine's post-execute seam -- it
    may be restored from the final boundary outright.
    """

    primitive: Optional[str] = None
    points: Tuple[int, ...] = ()
    notify_phase: Optional[str] = None


def choose_boundary(image: ReplayImage, constraint: ReplayConstraint) -> int:
    """The latest golden boundary a run under *constraint* may start at.

    Binning rule: the restored counters must not have passed the first
    injection point (the hook must see it dispatch), and the step that
    ends ``notify_phase`` must still be ahead (its notification must
    fire).  0 means a cold start.
    """
    hi = len(image.steps)
    if constraint.notify_phase is not None:
        for i, trace in enumerate(image.steps):
            if trace.ends_phase and trace.phase == constraint.notify_phase:
                hi = min(hi, i)
                break
    if constraint.points:
        first = min(constraint.points)
        primitive = constraint.primitive
        while hi > 0 and image.boundaries[hi].counters.get(primitive, 0) > first:
            hi -= 1
    return hi


def replay_boundary(context, spec) -> int:
    """The boundary index *spec* would restore from, or ``-1`` for cold.

    It needs no mounted file system (planners call this per spec, and
    instantiating backends here would be charged as executions by
    instrumented factories); :func:`try_replay_execute` adds the one
    gate it cannot check, ``fs.supports_snapshots``, which only turns
    every run cold, where the ordering is harmless.
    """
    if not context.replay_enabled:
        return -1
    image = getattr(context.golden, "replay", None)
    if image is None:
        return -1
    steps = context.app.steps()
    if steps is None or len(steps) != len(image.steps):
        return -1
    constraint = context.replay_constraint(spec)
    if constraint is None:
        return -1
    if constraint.points and constraint.primitive is None:
        return -1
    return choose_boundary(image, constraint)


def _values_equal(a, b) -> bool:
    """Structural equality that tolerates numpy arrays and dataclasses."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return (a.shape == b.shape and a.dtype == b.dtype
                and bool(np.array_equal(a, b)))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return False
        return all(_values_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_values_equal, a, b))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return all(_values_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    try:
        return bool(a == b)
    except Exception:  # noqa: BLE001 - unknown carry types stay conservative
        return False


class _Splicer:
    """Per-run fast-forward state: decides and applies step splices."""

    def __init__(self, fs: FFISFileSystem, image: ReplayImage,
                 constraint: ReplayConstraint,
                 carry: Dict[str, object]) -> None:
        self.fs = fs
        self.image = image
        self.constraint = constraint
        self.carry = carry
        #: Steps this run skipped via golden-delta application.
        self.spliced = 0

    # -- guards ---------------------------------------------------------------

    def _exhausted(self) -> bool:
        """No injection point can fire in any step we might skip."""
        points = self.constraint.points
        if not points:
            return True
        count = self.fs.interposer.count(self.constraint.primitive)
        return max(points) < count

    def _cursors_match(self, j: int) -> bool:
        """Live dynamic counters and allocation cursors equal golden's.

        This is the control-flow-divergence guard: a faulty prefix that
        absorbed an error (fewer reads, a skipped write, a suppressed
        create) cannot line up with the golden boundary and stays live.
        """
        boundary = self.image.boundaries[j]
        return (self.fs.interposer.counters_snapshot() == dict(boundary.counters)
                and self.fs.inodes.next_ino == boundary.next_ino
                and self.fs.next_fd == boundary.next_fd)

    def _carry_matches(self, j: int) -> bool:
        return _values_equal(self.carry, dict(self.image.carries[j]))

    def _state_clean(self, j: int, trace: StepTrace) -> bool:
        """Every inode the step observes or writes is bit-identical to
        the golden boundary state (timestamps excluded)."""
        boundary = self.image.boundaries[j]
        backend = self.fs.backend
        # sorted(): the guard's probe order must not depend on set
        # hashing -- any divergence path (first mismatching inode wins)
        # has to be the same inode on every interpreter.
        for ino in sorted(set(trace.observed) | set(trace.written)):
            golden_ext = boundary.extents.get(ino)
            live_ext = backend.extent_object(ino)
            if (golden_ext is None) != (live_ext is None):
                return False
            if golden_ext is not None and live_ext is not golden_ext \
                    and live_ext != golden_ext:
                return False
            golden_node = boundary.inodes.get(ino)
            live_node = self.fs.inodes.get_or_none(ino)
            if (golden_node is None) != (live_node is None):
                return False
            if golden_node is not None:
                kind, mode, nlink, size, rdev, _, _, entries = golden_node
                if (live_node.kind, live_node.mode, live_node.nlink,
                        live_node.size, live_node.rdev,
                        tuple(sorted(live_node.entries.items()))) != \
                        (kind, mode, nlink, size, rdev, entries):
                    return False
        return True

    # -- application ----------------------------------------------------------

    def _apply(self, j: int, trace: StepTrace) -> None:
        """Overlay step *j*'s golden delta onto the live file system."""
        after = self.image.boundaries[j + 1]
        backend = self.fs.backend
        for ino in trace.removed:
            backend.delete(ino)
            self.fs.inodes.drop(ino)
        for ino in trace.written:
            ext = after.extents.get(ino)
            if ext is not None:
                backend.adopt_extent(ino, ext)
            else:
                backend.delete(ino)
            image = after.inodes.get(ino)
            if image is not None:
                self.fs.inodes.set_image(ino, image)
        self.fs.interposer.set_counters(dict(after.counters))
        self.fs.inodes.set_scalars(next_ino=after.next_ino, clock=after.clock)
        self.fs.set_next_fd(after.next_fd)
        self.carry.clear()
        self.carry.update(self.image.carries[j + 1])
        self.spliced += 1
        if trace.ends_phase:
            # The skipped step would have ended its phase; listeners
            # (at-rest decay) fire against the spliced state, which is
            # exactly the state a live execution would have produced.
            self.fs.interposer.notify_phase_end(trace.phase)

    # -- the driver callback --------------------------------------------------

    def next_step(self, i: int) -> int:
        j = i + 1
        n = len(self.image.steps)
        while j < n:
            if not self._exhausted():
                break
            trace = self.image.steps[j]
            if not self._cursors_match(j):
                break
            if not self._carry_matches(j):
                break
            if not self._state_clean(j, trace):
                break
            self._apply(j, trace)
            j += 1
        return j


def try_replay_execute(context, spec, fs: FFISFileSystem, mp) -> bool:
    """Execute *spec* with prefix restore + suffix fast-forward.

    Returns ``False`` (without touching any state) when the run cannot
    be replayed safely -- :func:`replay_boundary` says cold, or the
    file system cannot snapshot -- in which case the caller runs cold.
    """
    start = replay_boundary(context, spec)
    if start < 0 or not fs.supports_snapshots:
        return False
    image = context.golden.replay
    carry: Dict[str, object] = {}
    if start > 0:
        fs.restore(image.boundaries[start])
        carry.update(image.carries[start])
    splicer = _Splicer(fs, image, context.replay_constraint(spec), carry)
    context.app.execute_from(mp, carry, start=start,
                             next_step=splicer.next_step, memos=image.memos)
    return True
