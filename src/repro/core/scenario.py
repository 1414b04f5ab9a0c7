"""Composable fault scenarios: *sets* of injection points per run.

The paper deliberately restricts itself to a single fault per run: the
:class:`repro.core.injector.InjectionHook` fires at exactly one dynamic
instance of one primitive.  Real storage faults arrive correlated --
sector-local bursts from one failing device region, repeated shorn
writes, and at-rest decay of bytes sitting on the device between
workflow stages.  A :class:`FaultScenario` generalizes the injector to
a *plan of injection points* while keeping the single-fault case
bit-identical to the classic engine.

Scenario -> paper threat-model mapping
======================================

==================  =====================================================
Scenario            Paper threat model (conf_cluster_FangWJKZGBKT21)
==================  =====================================================
``SingleFault``     The paper's model: one fault model applied at one
                    uniformly random dynamic instance per run (Sec. III,
                    requirement R4).  Bit-identical to the pre-scenario
                    engine -- same RNG draws, same records, same JSONL.
``KFaults``         Sec. VI's discussion of correlated device errors:
                    ``k`` faults drawn from one profile window.  With
                    ``correlated_window=W`` the k points cluster inside a
                    W-instance span (sector/phase locality of a failing
                    device region) instead of spreading uniformly.
``BurstFault``      A burst from one failing region: ``length``
                    *consecutive* dynamic instances of the primitive all
                    corrupted -- the repeated-shorn-write manifestation
                    the paper attributes to a single bad device.
``AtRestDecay``     At-rest corruption (Sec. II's "data at rest" threat):
                    persisted file bytes decay *between* application
                    stages, with no primitive in flight.  Applied
                    directly through the VFS backend, so profiling and
                    the write-path fault models never observe it.
==================  =====================================================

Determinism contract
====================

Scenarios draw their per-run injection points from the campaign's shared
``instances`` picker stream in run order, so planning stays executor
independent.  At fire time, point ``j`` (in ascending-seqno order)
derives its model RNG by *name* from the run's private seed --
``RngStream(seed)`` for point 0 (exactly the single-fault stream, which
keeps ``SingleFault`` and the first point of every scenario
bit-compatible with the classic engine) and
``RngStream(seed, "point", j)`` for later points -- so serial, parallel,
and fused-sweep execution produce record-identical results.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.injector import FaultInjector
from repro.core.signature import FaultSignature
from repro.errors import ConfigError
from repro.fusefs.inode import ROOT_INO, Inode, InodeKind
from repro.fusefs.vfs import FFISFileSystem
from repro.util.rngstream import RngStream


class FaultScenario(ABC):
    """A per-run plan of injection points over one fault signature."""

    #: Canonical scenario kind used in stamps and CLI specs.
    kind: str = "?"

    #: ``True`` only for :class:`SingleFault`: plans legacy (unstamped)
    #: specs and records, byte-identical to the pre-scenario engine.
    legacy: bool = False

    #: Whether planning needs a non-empty dynamic-instance window.
    needs_window: bool = True

    @property
    def fault_count(self) -> int:
        """Nominal number of faults per run (the k of an SDC-vs-k curve)."""
        return 1

    @abstractmethod
    def stamp(self) -> str:
        """Compact textual identity; round-trips through
        :func:`parse_scenario` and stamps specs, records, and campaign
        checkpoint identities."""

    @abstractmethod
    def pick(self, picker: np.random.Generator, window: range) -> Tuple[int, ...]:
        """The run's injection points, drawn from the shared *picker*.

        Must consume a fixed number of draws per call (given the same
        scenario parameters) so the campaign's instance stream stays
        replayable across code evolution.
        """

    @abstractmethod
    def arm(self, fs: FFISFileSystem, signature: FaultSignature, spec) -> object:
        """Attach this scenario's hook(s) for *spec* to a fresh fs."""

    def replay_constraint(self, signature: FaultSignature, spec):
        """What the prefix-replay engine must execute live for *spec*.

        The default ``None`` opts the scenario out of replay entirely
        (every run executes cold) -- new scenario classes are safe by
        construction and declare a constraint only once their firing
        semantics are understood by the replay engine.
        """
        return None

    def __str__(self) -> str:
        return self.stamp()


def _points_constraint(signature: FaultSignature, points):
    """Shared instance-hosted constraint: every planned injection point
    must dispatch live, so replay may start no later than the first."""
    from repro.core.engine.replay import ReplayConstraint

    points = tuple(int(p) for p in (points or ()) if int(p) >= 0)
    if not points:
        return None
    return ReplayConstraint(primitive=signature.primitive, points=points)


@dataclass(frozen=True)
class SingleFault(FaultScenario):
    """Exactly the paper's model: one fault at one uniform instance.

    Plans, records, checkpoint lines, and RNG draws are bit-identical to
    the pre-scenario engine, which is what lets PR 2-era checkpoints
    resume under the scenario-aware loader.
    """

    kind = "single"
    legacy = True

    def stamp(self) -> str:
        return "single"

    def pick(self, picker: np.random.Generator, window: range) -> Tuple[int, ...]:
        return (int(picker.integers(window.start, window.stop)),)

    def arm(self, fs: FFISFileSystem, signature: FaultSignature, spec):
        rng = RngStream(spec.seed).generator()
        return FaultInjector(signature).arm(fs, spec.target_instance, rng)

    def replay_constraint(self, signature: FaultSignature, spec):
        return _points_constraint(signature, (spec.target_instance,))


@dataclass(frozen=True)
class KFaults(FaultScenario):
    """``k`` faults per run, drawn from one profile window.

    Without ``correlated_window`` the k points spread uniformly over the
    window (independent faults).  With ``correlated_window=W`` a base
    instance is drawn first and the remaining k-1 points land inside
    ``[base, base + W)`` -- the sector/phase-local clustering of a
    failing device region.  Colliding draws collapse to one injection
    point (the same dynamic instance cannot be corrupted twice).
    """

    k: int
    correlated_window: Optional[int] = None

    kind = "k"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"KFaults needs k >= 1, got {self.k}")
        if self.correlated_window is not None and self.correlated_window < 1:
            raise ConfigError(
                f"correlated_window must be >= 1, got {self.correlated_window}")

    @property
    def fault_count(self) -> int:
        return self.k

    def stamp(self) -> str:
        if self.correlated_window is None:
            return f"k={self.k}"
        return f"k={self.k},window={self.correlated_window}"

    def pick(self, picker: np.random.Generator, window: range) -> Tuple[int, ...]:
        if self.correlated_window is None:
            draws = [int(picker.integers(window.start, window.stop))
                     for _ in range(self.k)]
            return tuple(sorted(set(draws)))
        base = int(picker.integers(window.start, window.stop))
        stop = min(base + self.correlated_window, window.stop)
        points = {base}
        for _ in range(self.k - 1):
            points.add(int(picker.integers(base, stop)))
        return tuple(sorted(points))

    def arm(self, fs: FFISFileSystem, signature: FaultSignature, spec):
        return FaultInjector(signature).arm_many(fs, spec.instances, spec.seed)

    def replay_constraint(self, signature: FaultSignature, spec):
        return _points_constraint(signature, spec.instances)


@dataclass(frozen=True)
class BurstFault(FaultScenario):
    """``length`` *consecutive* dynamic instances of one primitive.

    Models a burst from one failing device region: every write (or other
    primitive execution) in a contiguous span is corrupted.  The burst
    starts at a uniform instance and is clipped to the window's end, so
    a burst armed near the end of a run corrupts what remains of it.
    """

    length: int

    kind = "burst"

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ConfigError(f"BurstFault needs length >= 1, got {self.length}")

    @property
    def fault_count(self) -> int:
        return self.length

    def stamp(self) -> str:
        return f"burst={self.length}"

    def pick(self, picker: np.random.Generator, window: range) -> Tuple[int, ...]:
        base = int(picker.integers(window.start, window.stop))
        return tuple(range(base, min(base + self.length, window.stop)))

    def arm(self, fs: FFISFileSystem, signature: FaultSignature, spec):
        return FaultInjector(signature).arm_many(fs, spec.instances, spec.seed)

    def replay_constraint(self, signature: FaultSignature, spec):
        return _points_constraint(signature, spec.instances)


def _regular_files(fs: FFISFileSystem) -> List[Tuple[str, Inode]]:
    """Every regular file in *fs*, as sorted ``(path, inode)`` pairs."""
    found: List[Tuple[str, Inode]] = []

    def walk(node: Inode, prefix: str) -> None:
        for name in sorted(node.entries):
            child = fs.inodes.get(node.entries[name])
            path = f"{prefix}/{name}"
            if child.is_dir:
                walk(child, path)
            elif child.kind is InodeKind.FILE:
                found.append((path, child))

    walk(fs.inodes.get(ROOT_INO), "")
    return found


class AtRestDecayHook:
    """Flips bits of persisted bytes directly through the VFS backend.

    Satisfies the engine's ``ArmedHook`` protocol (``fired``/``note``)
    without ever joining a primitive's hook chain: decay happens to data
    at rest, so the corruption must be invisible to profiling and to the
    write-path fault models.  When ``after_phase`` is set the hook fires
    at that phase's end (via the interposer's phase listeners);
    otherwise the engine's :meth:`finalize` seam fires it between the
    application's last stage and its post-analysis.
    """

    def __init__(self, fs: FFISFileSystem, seed: int, n_bytes: int,
                 region: Optional[Tuple[int, int]],
                 after_phase: Optional[str]) -> None:
        self.fs = fs
        self.seed = seed
        self.n_bytes = n_bytes
        self.region = region
        self.after_phase = after_phase
        self.fired = False
        self.note = ""
        if after_phase is not None:
            fs.interposer.add_phase_listener(self._on_phase_end)

    def _on_phase_end(self, name: str) -> None:
        if name == self.after_phase and not self.fired:
            self._decay()

    def finalize(self) -> None:
        """At-rest seam: called by the engine after the application's
        last stage.  Fires only when no phase was targeted (a targeted
        phase that never ran stays not-fired, which the record audits)."""
        if self.after_phase is None and not self.fired:
            self._decay()

    def _file_window(self, node: Inode) -> Optional[Tuple[int, int]]:
        lo, hi = 0, node.size
        if self.region is not None:
            lo, hi = max(lo, self.region[0]), min(hi, self.region[1])
        return (lo, hi) if lo < hi else None

    def _decay(self) -> None:
        rng = RngStream(self.seed, "decay").generator()
        candidates = [(path, node, window)
                      for path, node in _regular_files(self.fs)
                      for window in (self._file_window(node),)
                      if window is not None]
        if not candidates:
            self.note = "decay: no persisted bytes to corrupt"
            return
        path, node, (lo, hi) = candidates[int(rng.integers(0, len(candidates)))]
        offsets = sorted({int(off) for off in
                          rng.integers(lo, hi, size=self.n_bytes)})
        backend = self.fs.backend
        for offset in offsets:
            bit = int(rng.integers(0, 8))
            byte = backend.pread(node.ino, 1, offset) or b"\x00"
            backend.pwrite(node.ino, bytes([byte[0] ^ (1 << bit)]), offset)
        self.fired = True
        self.note = (f"decay: flipped 1 bit in each of {len(offsets)} "
                     f"byte(s) of {path}")


@dataclass(frozen=True)
class AtRestDecay(FaultScenario):
    """Corrupt ``n_bytes`` persisted bytes between application stages.

    No primitive hosts the fault: the decay is applied straight through
    the VFS backend, at the end of ``after_phase`` (if given) or between
    the application's last stage and its post-analysis.  ``region``
    restricts the decay to a byte window of the target file -- the
    sector-local manifestation (e.g. an HDF5 file's packed metadata
    region).
    """

    n_bytes: int = 8
    region: Optional[Tuple[int, int]] = None
    after_phase: Optional[str] = None

    kind = "decay"
    needs_window = False

    def __post_init__(self) -> None:
        if self.n_bytes < 1:
            raise ConfigError(f"AtRestDecay needs n_bytes >= 1, got {self.n_bytes}")
        if self.region is not None:
            object.__setattr__(self, "region", tuple(self.region))
            lo, hi = self.region
            if lo < 0 or hi <= lo:
                raise ConfigError(
                    f"decay region must satisfy 0 <= start < stop, got {self.region}")

    @property
    def fault_count(self) -> int:
        return self.n_bytes

    def stamp(self) -> str:
        parts = [f"decay:bytes={self.n_bytes}"]
        if self.region is not None:
            parts.append(f"region={self.region[0]}-{self.region[1]}")
        if self.after_phase is not None:
            parts.append(f"after={self.after_phase}")
        return ",".join(parts)

    def pick(self, picker: np.random.Generator, window: range) -> Tuple[int, ...]:
        return ()

    def arm(self, fs: FFISFileSystem, signature: FaultSignature, spec):
        return AtRestDecayHook(fs, spec.seed, self.n_bytes, self.region,
                               self.after_phase)

    def replay_constraint(self, signature: FaultSignature, spec):
        """Decay hosts no primitive: with no target phase it fires at the
        engine's post-execute seam (the run may restore the final golden
        boundary outright); with ``after_phase`` set, the step ending
        that phase must still be ahead so its notification fires."""
        from repro.core.engine.replay import ReplayConstraint

        return ReplayConstraint(notify_phase=self.after_phase)


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"scenario spec: {key}={text!r} is not an integer") \
            from None


def parse_scenario(spec: str) -> FaultScenario:
    """Parse a CLI/config scenario spec into a :class:`FaultScenario`.

    Grammar (also the output of :meth:`FaultScenario.stamp`, so stamps
    round-trip)::

        single
        k=<K>[,window=<W>]
        burst=<N>
        decay[:bytes=<N>][,region=<LO>-<HI>][,after=<PHASE>]
    """
    text = spec.strip()
    if not text:
        raise ConfigError("empty scenario spec")
    if text == "single":
        return SingleFault()
    if text.startswith("burst="):
        return BurstFault(length=_parse_int("burst", text[len("burst="):]))
    if text.startswith("k="):
        head, _, rest = text.partition(",")
        k = _parse_int("k", head[len("k="):])
        if not rest:
            return KFaults(k=k)
        if not rest.startswith("window="):
            raise ConfigError(f"scenario spec: expected window=..., got {rest!r}")
        return KFaults(k=k, correlated_window=_parse_int(
            "window", rest[len("window="):]))
    if text == "decay" or text.startswith("decay:"):
        kwargs = {}
        body = text[len("decay:"):] if text.startswith("decay:") else ""
        for part in filter(None, body.split(",")):
            key, sep, value = part.partition("=")
            if not sep:
                raise ConfigError(f"scenario spec: malformed decay option {part!r}")
            if key == "bytes":
                kwargs["n_bytes"] = _parse_int("bytes", value)
            elif key == "region":
                lo, sep, hi = value.partition("-")
                if not sep:
                    raise ConfigError(
                        f"scenario spec: region wants LO-HI, got {value!r}")
                kwargs["region"] = (_parse_int("region", lo),
                                    _parse_int("region", hi))
            elif key == "after":
                kwargs["after_phase"] = value
            else:
                raise ConfigError(f"scenario spec: unknown decay option {key!r}")
        return AtRestDecay(**kwargs)
    raise ConfigError(
        f"unknown scenario spec {spec!r} (grammar: single | k=K[,window=W] "
        "| burst=N | decay[:bytes=N][,region=LO-HI][,after=PHASE])")


def as_scenario(value) -> FaultScenario:
    """Coerce ``None`` (legacy), a spec string, or a scenario instance."""
    if value is None:
        return SingleFault()
    if isinstance(value, FaultScenario):
        return value
    if isinstance(value, str):
        return parse_scenario(value)
    raise ConfigError(f"cannot interpret {value!r} as a fault scenario")
