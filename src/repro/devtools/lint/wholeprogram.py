"""The whole-program rule pack: R007--R010.

Where R001--R006 check one file at a time, these rules reason over the
:class:`ProjectAnalysis` -- the call graph plus propagated effect
summaries of every file in the lint run -- because the invariants they
enforce only exist across function and module boundaries:

* **R007** (fork-effect safety): a function reachable from a fork/spawn
  entry point runs in a child process, where writes to module-level
  state silently diverge from the parent.  Only the sanctioned
  capture-then-fork registries may be written there.
* **R008** (queue-protocol conformance): the lease queue's crash
  story holds only if *every* mutation of its state directories goes
  through claim-by-atomic-rename and completion by publishing the
  lease's segment, the one authoritative completion record.  A raw
  in-place write or an unguarded unlink anywhere --
  including through a helper the path was passed to -- reopens the
  torn-state windows the protocol closed.
* **R009** (shutdown soundness): a function that acquires a
  queue/worker/shard resource and releases it explicitly must release
  in a ``finally`` -- otherwise one raise strands the FINISHED marker
  or an unflushed shard tail, exactly the hangs the dist tests exist
  to prevent.
* **R010** (sink plan-order): record emission driven by a raw
  ``os.listdir``/``glob``/``iterdir`` enumeration writes records in
  filesystem-hash order; the record stream is only byte-stable if the
  iteration is sorted into plan order first.

All rules yield violations at the precise offending statement, in
deterministic (sorted-qualname) order, and are suppressible with the
same ``# repro: allow[R00N] reason`` pragma as per-file rules.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.devtools.lint.callgraph import CallGraph, Project, build_project
from repro.devtools.lint.dataflow import (
    Summary,
    propagate,
    state_roots,
    summarize,
)
from repro.devtools.lint.registry import (
    FileContext,
    ProjectRule,
    Scope,
    Violation,
    register,
)
from repro.devtools.lint.rules import _DEVTOOLS, _ENGINE_PATHS


@dataclasses.dataclass
class ProjectAnalysis:
    """Everything a :class:`ProjectRule` may ask about the lint run."""

    project: Project
    graph: CallGraph
    summaries: Dict[str, Summary]

    def relpath_of(self, qualname: str) -> str:
        fn = self.project.function(qualname)
        return fn.ctx.path if fn is not None else ""

    def items(self) -> Iterator[Tuple[str, Summary, str]]:
        """``(qualname, summary, relpath)`` in deterministic order."""
        for qualname in sorted(self.summaries):
            fn = self.project.function(qualname)
            if fn is not None:
                yield qualname, self.summaries[qualname], fn.ctx.path


def build_analysis(
        files: Iterable[Tuple[str, FileContext]]) -> ProjectAnalysis:
    """Call graph + fixpoint-propagated summaries for one lint run."""
    project = build_project(files)
    graph = CallGraph.build(project)
    summaries = propagate(project, graph, summarize(project))
    return ProjectAnalysis(project=project, graph=graph,
                           summaries=summaries)


@register
class ForkEffectRule(ProjectRule):
    """R007: no module-global writes reachable from a fork boundary."""

    id = "R007"
    name = "fork-effect-safety"
    rationale = ("functions reachable from a fork/spawn entry run in "
                 "child processes where module-global writes silently "
                 "diverge from the parent")
    scope = Scope(include=_ENGINE_PATHS, exclude=_DEVTOOLS)

    #: The capture-then-fork registries the executor owns; writing them
    #: from worker context is the sanctioned pattern, not a leak.
    sanctioned = frozenset({"_FORK_REGISTRY", "_WORKER_STATE"})
    #: Functions that are worker entry points by contract even when no
    #: fork edge in the analyzed files hands them to an executor (they
    #: are spawned via the CLI across hosts).
    entry_names = frozenset({"run_worker"})

    def check_project(self,
                      analysis: ProjectAnalysis) -> Iterator[Violation]:
        roots = set(analysis.graph.fork_entries)
        roots.update(q for q in analysis.project.functions
                     if q.rsplit(".", 1)[-1] in self.entry_names)
        reachable = analysis.graph.reachable_from(sorted(roots))
        for qualname, summary, relpath in analysis.items():
            if qualname not in reachable:
                continue
            for write in summary.global_writes:
                if write.name in self.sanctioned:
                    continue
                verb = "rebinds" if write.kind == "rebind" else "mutates"
                yield self.project_violation(
                    relpath, write.line, write.col,
                    f"{qualname} {verb} module-level {write.name!r} and "
                    "is reachable from a fork/spawn entry point; "
                    "child-process writes to module state diverge "
                    "silently -- pass state explicitly or use the "
                    "sanctioned capture registries")


@register
class QueueProtocolRule(ProjectRule):
    """R008: queue state dirs change only through the lease protocol."""

    id = "R008"
    name = "queue-protocol"
    rationale = ("raw filesystem mutations under pending/, leased/, "
                 "or shards/ that bypass claim-by-atomic-rename or "
                 "completion by segment publish reopen the torn-state "
                 "crash windows the protocol closed")
    scope = Scope(include=("*repro/core/*", "*repro/apps/*"),
                  exclude=_DEVTOOLS)

    #: Legal direct state-to-state renames: claiming, re-posting, and
    #: quarantining a damaged or poison lease.  Completion never renames
    #: into shards/ directly -- it publishes a tmp sibling (detected via
    #: the ``suffixed`` provenance marker).
    legal_renames = frozenset({("pending", "leased"),
                               ("leased", "pending"),
                               ("pending", "quarantine"),
                               ("leased", "quarantine")})

    def check_project(self,
                      analysis: ProjectAnalysis) -> Iterator[Violation]:
        for qualname, summary, relpath in analysis.items():
            yield from self._check_fs_ops(summary, relpath)
            yield from self._check_helper_passes(analysis, summary,
                                                 relpath)

    def _check_fs_ops(self, summary: Summary,
                      relpath: str) -> Iterator[Violation]:
        for op in summary.fs_ops:
            if op.kind == "open_w":
                states = sorted(state_roots(op.path_roots))
                if states and not op.atomic_publish:
                    yield self.project_violation(
                        relpath, op.line, op.col,
                        "in-place write under queue state dir "
                        f"{'/'.join(states)}/: a crash mid-write leaves "
                        "a torn entry other workers will read; write a "
                        "tmp sibling and os.replace() it into place")
            elif op.kind == "rename":
                yield from self._check_rename(op, relpath)
            elif op.kind == "unlink":
                yield from self._check_unlink(op, relpath)

    def _check_rename(self, op, relpath: str) -> Iterator[Violation]:
        src = state_roots(op.src_roots)
        dst = state_roots(op.dst_roots)
        if "shards" in src and "shards" not in dst:
            yield self.project_violation(
                relpath, op.line, op.col,
                "moves an entry out of shards/: published segments are "
                "the authoritative completion record and must never be "
                "renamed away")
            return
        if "shards" in dst and "suffixed" not in op.src_roots:
            yield self.project_violation(
                relpath, op.line, op.col,
                "renames directly into shards/: a segment must publish "
                "through a tmp sibling (write then os.replace) so a "
                "crash never leaves a torn segment that settles its "
                "lease")
            return
        if "suffixed" in op.src_roots:
            return   # tmp-sibling atomic publish: always sanctioned
        for s in sorted(src):
            for d in sorted(dst):
                if s != d and (s, d) not in self.legal_renames:
                    yield self.project_violation(
                        relpath, op.line, op.col,
                        f"renames {s}/ -> {d}/, which is not a lease "
                        "transition the protocol defines (legal: "
                        "pending<->leased, quarantining, tmp-sibling "
                        "publishes)")

    def _check_unlink(self, op, relpath: str) -> Iterator[Violation]:
        states = state_roots(op.path_roots)
        if "shards" in states:
            yield self.project_violation(
                relpath, op.line, op.col,
                "unlinks a published segment under shards/: segments "
                "are the authoritative completion record; deleting one "
                "re-executes paid-for work")
        elif states & {"pending", "leased"} and not op.shards_probed:
            which = "/".join(sorted(states & {"pending", "leased"}))
            yield self.project_violation(
                relpath, op.line, op.col,
                f"unlinks a {which}/ entry without first probing shards/ "
                "for its published segment; an unguarded delete can "
                "discard the only copy of an unfinished lease")

    def _check_helper_passes(self, analysis: ProjectAnalysis,
                             summary: Summary,
                             relpath: str) -> Iterator[Violation]:
        for state_pass in summary.state_arg_passes:
            callee = analysis.summaries.get(state_pass.callee)
            if callee is None:
                continue
            if state_pass.param in callee.unatomic_write_params:
                states = "/".join(sorted(state_roots(state_pass.roots)))
                yield self.project_violation(
                    relpath, state_pass.line, state_pass.col,
                    f"passes a {states}/ path to {state_pass.callee}, "
                    "which opens it for writing in place (no tmp-"
                    "sibling publish); the torn-write window crosses "
                    "the call boundary but is still a protocol breach")


@register
class ShutdownSoundnessRule(ProjectRule):
    """R009: explicit releases after an acquire live in ``finally``."""

    id = "R009"
    name = "shutdown-soundness"
    rationale = ("a function that acquires queue/worker/shard resources "
                 "and releases them explicitly must release in a "
                 "finally, or one raise strands the FINISHED marker or "
                 "an unflushed shard tail")
    scope = Scope(include=_ENGINE_PATHS, exclude=_DEVTOOLS)

    def check_project(self,
                      analysis: ProjectAnalysis) -> Iterator[Violation]:
        for qualname, summary, relpath in analysis.items():
            if not summary.acquires:
                continue
            releases: List[Tuple[int, int, str, bool]] = [
                (site.line, site.col, f"{site.attr}()", site.in_finally)
                for site in summary.release_sites]
            for call in summary.call_sites:
                callee = analysis.summaries.get(call.callee)
                # A call is this function's release step only when the
                # callee purely releases (finish(), close() wrappers);
                # a callee that also acquires manages its own lifetime.
                if callee is not None and callee.releases_trans \
                        and not callee.acquires_trans:
                    releases.append((call.line, call.col,
                                     f"{call.callee}()",
                                     call.in_finally))
            if not releases or any(infin for *_x, infin in releases):
                continue   # with-block managed, or finally-dominated
            for line, col, what, _infin in sorted(set(releases)):
                yield self.project_violation(
                    relpath, line, col,
                    f"{qualname} acquires a resource but its release "
                    f"{what} is not dominated by a finally; a raise "
                    "between acquire and release strands the resource "
                    "-- move the release into try/finally")


@register
class SinkPlanOrderRule(ProjectRule):
    """R010: no record emission driven by filesystem-hash iteration."""

    id = "R010"
    name = "sink-plan-order"
    rationale = ("emitting records while iterating an unordered "
                 "filesystem enumeration writes the stream in "
                 "fs-hash order, breaking byte-identity with serial "
                 "execution; sort into plan order first")
    scope = Scope(include=("*repro/core/*", "*repro/apps/*"),
                  exclude=_DEVTOOLS)

    def check_project(self,
                      analysis: ProjectAnalysis) -> Iterator[Violation]:
        for qualname, summary, relpath in analysis.items():
            for loop in summary.loops:
                emits = loop.emits_direct or any(
                    callee in analysis.summaries
                    and analysis.summaries[callee].emits_trans
                    for callee in loop.body_callees)
                if not emits:
                    continue
                yield self.project_violation(
                    relpath, loop.line, loop.col,
                    f"{qualname} emits records while iterating an "
                    "unordered filesystem enumeration "
                    "(listdir/glob/iterdir order is hash-arbitrary); "
                    "sort the entries into plan order before emitting")
