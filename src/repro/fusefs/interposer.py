"""The instrumentation hook chain at the heart of the FUSE substitute.

Every VFS primitive builds a :class:`PrimitiveCall` describing its
arguments and dispatches it through the :class:`Interposer` before touching
the backing store.  Hooks registered for the primitive run in registration
order and may:

* observe the call (profiling),
* mutate ``call.args`` in place (BIT_FLIP / SHORN_WRITE rewrite the write
  buffer exactly as the paper's instrumented ``FFIS_write`` rewrites the
  ``buffer/size/offset`` triple handed to ``pwrite``),
* return :attr:`CallDecision.SUPPRESS` to elide the underlying operation
  while still reporting success (DROPPED_WRITE).

The interposer also assigns each primitive invocation a dense sequence
number, which is the coordinate system used by the fault injector ("inject
at the k-th dynamic execution of the primitive").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


class CallDecision(enum.Enum):
    """A hook's verdict on the in-flight primitive call."""

    PROCEED = "proceed"
    SUPPRESS = "suppress"


@dataclass
class PrimitiveCall:
    """One dynamic invocation of a VFS primitive.

    ``args`` is mutable; hooks rewrite entries in place.  ``seqno`` is the
    0-based dynamic execution index of this primitive within the current
    interposer (i.e. within the current mount session).

    ``result_transform`` lets a hook corrupt what the primitive *returns*
    rather than what it receives -- the read-path corruption model of
    CORDS-style injectors (the application sees corrupted bytes, the
    device content stays intact).  Only ``ffis_read`` honours it.
    """

    primitive: str
    args: Dict[str, Any]
    seqno: int
    suppressed: bool = False
    notes: List[str] = field(default_factory=list)
    result_transform: Optional[Callable[[bytes], bytes]] = None


# A hook takes the call and optionally returns a decision; ``None`` means
# PROCEED.  Hooks must not raise for ordinary operation -- an exception
# escaping a hook propagates into the application and will be classified
# as a crash by the campaign runner.
Hook = Callable[[PrimitiveCall], Optional[CallDecision]]


class Interposer:
    """Routes primitive calls through per-primitive hook chains."""

    def __init__(self) -> None:
        self._hooks: Dict[str, List[Hook]] = {}
        self._global_hooks: List[Hook] = []
        self._phase_listeners: List[Callable[[str], None]] = []
        self._counters: Dict[str, int] = {}

    # -- registration --------------------------------------------------------

    def add_hook(self, primitive: str, hook: Hook) -> None:
        """Register *hook* for one primitive (e.g. ``"ffis_write"``)."""
        self._hooks.setdefault(primitive, []).append(hook)

    def add_global_hook(self, hook: Hook) -> None:
        """Register *hook* for every primitive (runs before specific hooks)."""
        self._global_hooks.append(hook)

    def remove_hook(self, primitive: str, hook: Hook) -> None:
        self._hooks.get(primitive, []).remove(hook)

    def remove_global_hook(self, hook: Hook) -> None:
        self._global_hooks.remove(hook)

    def add_phase_listener(self, listener: Callable[[str], None]) -> None:
        """Register a callback fired when the application ends a named
        phase.  Phase boundaries are the only primitive-free events the
        instrumentation layer exposes; at-rest fault scenarios corrupt
        persisted bytes there, between stages, with no call in flight."""
        self._phase_listeners.append(listener)

    def notify_phase_end(self, name: str) -> None:
        """Tell listeners the application just finished phase *name*."""
        for listener in list(self._phase_listeners):
            listener(name)

    # -- dispatch -------------------------------------------------------------

    def count(self, primitive: str) -> int:
        """Dynamic executions of *primitive* seen so far in this session."""
        return self._counters.get(primitive, 0)

    def dispatch(self, primitive: str, args: Dict[str, Any]) -> PrimitiveCall:
        """Run the hook chain for one invocation and return the final call.

        The caller (the VFS primitive) inspects ``call.suppressed`` and
        ``call.args`` to decide what, if anything, to forward to the
        backing store.
        """
        seqno = self._counters.get(primitive, 0)
        self._counters[primitive] = seqno + 1
        call = PrimitiveCall(primitive=primitive, args=args, seqno=seqno)
        for hook in self._global_hooks:
            if hook(call) is CallDecision.SUPPRESS:
                call.suppressed = True
        for hook in self._hooks.get(primitive, ()):
            if hook(call) is CallDecision.SUPPRESS:
                call.suppressed = True
        return call

    def reset_counters(self) -> None:
        """Forget dynamic execution counts (new mount session)."""
        self._counters.clear()

    def counters_snapshot(self) -> Dict[str, int]:
        """A copy of every primitive's dynamic execution count."""
        return dict(self._counters)

    def set_counters(self, counters: Dict[str, int]) -> None:
        """Adopt previously captured counts (prefix-replay restore: the
        sequence numbering continues exactly where the snapshot left
        off, so absolute injection instances keep their meaning)."""
        self._counters = dict(counters)
