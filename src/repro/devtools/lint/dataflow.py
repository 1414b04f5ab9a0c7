"""Per-function effect summaries, propagated over the call graph.

Each function of the :class:`~repro.devtools.lint.callgraph.Project`
gets one :class:`Summary` describing the effects the whole-program
rules care about:

* **module-global writes** -- ``global X`` rebinding plus in-place
  mutation of module-level names (``CACHE[k] = v``, ``CACHE.append``),
  including cross-module writes through an imported module attribute.
  Each write keeps its source location so R007 can point at the
  statement, not the function.
* **filesystem mutations** with *path provenance*: ``os.rename`` /
  ``os.replace`` / ``os.unlink`` / ``open(..., "w")`` calls, each
  carrying the set of provenance roots its path expression derives
  from.  Roots include queue state directories (``state:pending`` for
  ``self.pending_dir`` or ``os.path.join(root, "pending")``),
  parameters (``param:name``), and a ``suffixed`` marker for
  tmp-sibling spellings (``path + ".tmp"``) -- enough for R008 to tell
  an atomic publish from an in-place overwrite across function
  boundaries.
* **record emission / resource acquire / release** structure: does the
  function emit records, start workers or open shards, raise the
  FINISHED marker or close a sink -- and is each release site inside a
  ``finally`` handler (R009's domination check).
* **ordered-iteration shape**: loops whose iterable comes from an
  unordered filesystem enumeration, with the body's call targets, so
  R010 can ask "does this hash-ordered loop eventually emit".

:func:`propagate` closes the reachable-effect bits (emits, acquires,
releases, parameter-to-raw-write flows) over the call graph to a
fixpoint; set union is monotone, so mutual recursion terminates.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.devtools.lint.callgraph import (
    CallGraph,
    CallResolver,
    FunctionInfo,
    Project,
)

#: Queue state directories and the attribute / path-literal spellings
#: that denote them.  ``shards`` is tracked too: a published segment is
#: both the record stream and the lease's completion record.
STATE_DIR_ATTRS = {
    "pending_dir": "pending", "leased_dir": "leased",
    "shards_dir": "shards", "quarantine_dir": "quarantine",
}
STATE_DIR_NAMES = frozenset(STATE_DIR_ATTRS.values())

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "add", "update", "pop", "setdefault", "extend", "insert",
    "clear", "remove", "discard", "popitem", "appendleft",
})

#: Callables that enumerate a directory in filesystem (hash-arbitrary)
#: order.
_UNORDERED_FS_SOURCES = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})

#: The injectable filesystem seam (``chaos.QueueIO``): attribute calls
#: whose receiver's *terminal* name is exactly ``io`` or ``_io`` carry
#: the same protocol obligations as their ``os.*`` spellings -- the
#: chaos layer wraps semantics, it never changes them.  The receiver
#: segment is matched exactly (not by suffix), so ``scenario.replace``
#: cannot alias ``os.replace``.
_IO_SEAM_OPS = {
    "replace": "os.replace", "rename": "os.rename",
    "unlink": "os.unlink", "exists": "os.path.exists",
    "listdir": "os.listdir", "open_w": "io.open_w",
}


def _io_seam_canonical(dotted: str) -> Optional[str]:
    """The canonical ``os.*`` spelling of an io-seam call, or None."""
    head, _, tail = dotted.rpartition(".")
    if head.rsplit(".", 1)[-1] in ("io", "_io"):
        return _IO_SEAM_OPS.get(tail)
    return None

#: Resource-acquire spellings: constructions/calls after which the
#: function owns something a crash could strand (workers to drain,
#: shard tails to flush, leases to settle).
_ACQUIRE_CLASSES = frozenset({"JsonlSink", "ProcessPoolExecutor"})
_ACQUIRE_ATTRS = frozenset({"claim"})
_ACQUIRE_NAMES = frozenset({"run_worker"})

#: Release spellings R009 requires to be finally-dominated.
_RELEASE_ATTRS = frozenset({"mark_finished", "close"})


@dataclasses.dataclass(frozen=True)
class GlobalWrite:
    """One write to a module-level binding."""

    module: str
    name: str
    line: int
    col: int
    #: "rebind" (global X; X = ...) or "mutate" (X[k] = / X.append).
    kind: str


@dataclasses.dataclass(frozen=True)
class FsOp:
    """One raw filesystem mutation with path provenance."""

    kind: str                    #: "open_w" | "rename" | "unlink"
    line: int
    col: int
    path_roots: FrozenSet[str] = frozenset()   #: open_w / unlink
    src_roots: FrozenSet[str] = frozenset()    #: rename source
    dst_roots: FrozenSet[str] = frozenset()    #: rename destination
    #: open_w only: the write targets a tmp sibling that the same
    #: function later renames into place (the sanctioned atomic
    #: publish).
    atomic_publish: bool = False
    #: unlink only: a probe of ``shards/`` -- ``os.path.exists`` /
    #: ``isfile`` of a segment path or ``os.listdir`` of the directory
    #: -- appears earlier in the function (the published-segment-
    #: authoritative guard).
    shards_probed: bool = False


@dataclasses.dataclass(frozen=True)
class ReleaseSite:
    line: int
    col: int
    attr: str
    in_finally: bool


@dataclasses.dataclass(frozen=True)
class CallSite:
    callee: str
    line: int
    col: int
    in_finally: bool


@dataclasses.dataclass(frozen=True)
class LoopSite:
    """One ``for`` loop (or comprehension) over an unordered fs source."""

    line: int
    col: int
    emits_direct: bool           #: body calls .emit/.emit_stamped itself
    body_callees: Tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class StateArgPass:
    """A state-dir-derived expression handed to a project function."""

    callee: str
    param: str
    roots: FrozenSet[str]
    line: int
    col: int


@dataclasses.dataclass
class Summary:
    """Everything the whole-program rules know about one function."""

    qualname: str
    global_writes: List[GlobalWrite] = dataclasses.field(default_factory=list)
    fs_ops: List[FsOp] = dataclasses.field(default_factory=list)
    emits: bool = False
    acquires: bool = False
    release_sites: List[ReleaseSite] = dataclasses.field(default_factory=list)
    call_sites: List[CallSite] = dataclasses.field(default_factory=list)
    loops: List[LoopSite] = dataclasses.field(default_factory=list)
    #: (own param, callee qualname, callee param) positional bindings.
    param_passes: List[Tuple[str, str, str]] = dataclasses.field(
        default_factory=list)
    state_arg_passes: List[StateArgPass] = dataclasses.field(
        default_factory=list)
    #: Params that reach a raw in-place ``open(..., "w")`` (no atomic
    #: publish), here or in any callee the param is forwarded to.
    unatomic_write_params: Set[str] = dataclasses.field(default_factory=set)
    # -- closed over the call graph by propagate() -------------------------
    emits_trans: bool = False
    acquires_trans: bool = False
    releases_trans: bool = False


def state_roots(roots: FrozenSet[str]) -> Set[str]:
    """The queue state-dir tokens among *roots* (``pending``...)."""
    return {r.split(":", 1)[1] for r in roots if r.startswith("state:")}


class _FunctionScanner:
    """One ordered pass over a function body, building its Summary."""

    def __init__(self, project: Project, fn: FunctionInfo) -> None:
        self.project = project
        self.fn = fn
        self.ctx = fn.ctx
        self.module = project.modules[fn.module]
        self.summary = Summary(qualname=fn.qualname)
        self.resolver = CallResolver(project, fn)
        self.params = set(fn.params)
        #: Names the function binds locally (shadowing module globals).
        self.local_names = self._collect_local_names()
        self.global_decls = self._collect_global_decls()
        #: Simple env: local name -> the expression last assigned to it.
        self.env: Dict[str, ast.AST] = {}
        #: Lines of shards/ probes seen so far.
        self._shards_probe_lines: List[int] = []
        #: Raw open_w ops pending the atomic-publish resolution.
        self._open_ops: List[Tuple[FsOp, FrozenSet[str]]] = []
        self._rename_src_roots: List[FrozenSet[str]] = []

    def _collect_local_names(self) -> Set[str]:
        names = set(self.params)
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and \
                    isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.withitem) and \
                    isinstance(node.optional_vars, ast.Name):
                names.add(node.optional_vars.id)
            elif isinstance(node, ast.comprehension) and \
                    isinstance(node.target, ast.Name):
                names.add(node.target.id)
        return names

    def _collect_global_decls(self) -> Set[str]:
        decls: Set[str] = set()
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Global):
                decls.update(node.names)
        return decls

    # -- provenance --------------------------------------------------------

    def roots_of(self, node: ast.AST, depth: int = 0) -> FrozenSet[str]:
        """Provenance roots of a path expression."""
        if depth > 12:
            return frozenset()
        if isinstance(node, ast.Attribute):
            if node.attr in STATE_DIR_ATTRS:
                return frozenset({f"state:{STATE_DIR_ATTRS[node.attr]}"})
            return frozenset({f"attr:{node.attr}"})
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            if bound is not None:
                return self.roots_of(bound, depth + 1)
            if node.id in self.params:
                return frozenset({f"param:{node.id}"})
            return frozenset({f"var:{node.id}"})
        if isinstance(node, ast.Call):
            dotted = self.ctx.resolve(node.func)
            if dotted in ("os.path.join", "posixpath.join", "ntpath.join"):
                roots: Set[str] = set()
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and \
                            isinstance(arg.value, str) and \
                            arg.value in STATE_DIR_NAMES:
                        roots.add(f"state:{arg.value}")
                    else:
                        roots |= self.roots_of(arg, depth + 1)
                return frozenset(roots)
            return frozenset()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return (self.roots_of(node.left, depth + 1)
                    | self.roots_of(node.right, depth + 1)
                    | frozenset({"suffixed"}))
        if isinstance(node, ast.JoinedStr):
            roots = {"suffixed"}
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    roots |= self.roots_of(value.value, depth + 1)
            return frozenset(roots)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in STATE_DIR_NAMES:
                return frozenset({f"state:{node.value}"})
            return frozenset({"suffixed"})
        return frozenset()

    # -- the walk ----------------------------------------------------------

    def scan(self) -> Summary:
        self._walk(self.fn.node, in_finally=False)
        self._resolve_atomic_publish()
        return self.summary

    def _walk(self, node: ast.AST, in_finally: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue   # nested defs carry their own summaries
            if isinstance(child, ast.Try):
                for part in child.body + child.orelse:
                    self._walk_stmt(part, in_finally)
                for handler in child.handlers:
                    self._walk(handler, in_finally)
                for part in child.finalbody:
                    self._walk_stmt(part, True)
                continue
            self._walk_stmt(child, in_finally)

    def _walk_stmt(self, child: ast.AST, in_finally: bool) -> None:
        if isinstance(child, ast.Assign):
            self._scan_assign(child)
        elif isinstance(child, ast.AugAssign):
            self._scan_target(child.target, kind="mutate")
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            self._scan_loop(child)
        elif isinstance(child, (ast.ListComp, ast.SetComp,
                                ast.GeneratorExp, ast.DictComp)):
            self._scan_comprehension(child)
        if isinstance(child, ast.Call):
            self._scan_call(child, in_finally)
        self._walk(child, in_finally)

    # -- global writes -----------------------------------------------------

    def _scan_assign(self, node: ast.Assign) -> None:
        self.resolver.track_assignment(node)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if target.id in self.global_decls:
                    self.summary.global_writes.append(GlobalWrite(
                        module=self.fn.module, name=target.id,
                        line=target.lineno, col=target.col_offset + 1,
                        kind="rebind"))
                else:
                    self.env[target.id] = node.value
            else:
                self._scan_target(target, kind="mutate")

    def _scan_target(self, target: ast.AST, kind: str) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self.summary.global_writes.append(GlobalWrite(
                    module=self.fn.module, name=target.id,
                    line=target.lineno, col=target.col_offset + 1,
                    kind="rebind"))
            return
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return
        base = target.value
        written = self._module_global_of(base)
        if written is not None:
            module, name = written
            self.summary.global_writes.append(GlobalWrite(
                module=module, name=name, line=target.lineno,
                col=target.col_offset + 1, kind=kind))

    def _module_global_of(self,
                          base: ast.AST) -> Optional[Tuple[str, str]]:
        """``(module, name)`` when *base* denotes a module-level binding."""
        if isinstance(base, ast.Name):
            if base.id in self.local_names and \
                    base.id not in self.global_decls:
                return None
            if base.id in self.module.module_globals:
                return (self.fn.module, base.id)
            return None
        if isinstance(base, ast.Attribute) and \
                isinstance(base.value, (ast.Name, ast.Attribute)):
            dotted = self.ctx.resolve(base.value)
            other = self.project.modules.get(dotted)
            if other is not None and base.attr in other.module_globals:
                return (dotted, base.attr)
        return None

    # -- calls -------------------------------------------------------------

    def _scan_call(self, node: ast.Call, in_finally: bool) -> None:
        dotted = self.ctx.resolve(node.func)
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else ""

        # Mutation methods on module-level names.
        if attr in _MUTATORS and isinstance(func, ast.Attribute):
            written = self._module_global_of(func.value)
            if written is not None:
                module, name = written
                self.summary.global_writes.append(GlobalWrite(
                    module=module, name=name, line=node.lineno,
                    col=node.col_offset + 1, kind="mutate"))

        # Record emission.
        if attr in ("emit", "emit_stamped"):
            self.summary.emits = True

        # Acquire / release structure.
        tail = dotted.rsplit(".", 1)[-1] if dotted else ""
        if tail in _ACQUIRE_CLASSES or tail in _ACQUIRE_NAMES or \
                attr in _ACQUIRE_ATTRS:
            self.summary.acquires = True
        if attr == "start" and isinstance(func, ast.Attribute):
            receiver = self.ctx.resolve(func.value).lower()
            if "proc" in receiver or "worker" in receiver:
                self.summary.acquires = True
        if attr in _RELEASE_ATTRS:
            self.summary.release_sites.append(ReleaseSite(
                line=node.lineno, col=node.col_offset + 1, attr=attr,
                in_finally=in_finally))

        # Filesystem mutations with provenance.  Calls through the
        # injectable QueueIO seam (``self.io.replace``, ``queue.io
        # .unlink``, ...) normalize onto their os.* spellings first so
        # the protocol rules see straight through the chaos layer.
        fs_call = _io_seam_canonical(dotted) or dotted
        if fs_call in ("os.rename", "os.replace"):
            if len(node.args) >= 2:
                src = self.roots_of(node.args[0])
                dst = self.roots_of(node.args[1])
                self.summary.fs_ops.append(FsOp(
                    kind="rename", line=node.lineno,
                    col=node.col_offset + 1, src_roots=src,
                    dst_roots=dst))
                self._rename_src_roots.append(src)
        elif fs_call in ("os.unlink", "os.remove"):
            if node.args:
                roots = self.roots_of(node.args[0])
                probed = bool(self._shards_probe_lines) and \
                    min(self._shards_probe_lines) < node.lineno
                self.summary.fs_ops.append(FsOp(
                    kind="unlink", line=node.lineno,
                    col=node.col_offset + 1, path_roots=roots,
                    shards_probed=probed))
        elif fs_call == "io.open_w":
            # The seam's open-for-write: no mode argument, always a
            # binary write handle.
            if node.args:
                roots = self.roots_of(node.args[0])
                op = FsOp(kind="open_w", line=node.lineno,
                          col=node.col_offset + 1, path_roots=roots)
                self._open_ops.append((op, roots))
        elif fs_call == "open" or fs_call.endswith(".open"):
            mode = self._open_mode(node)
            if mode and ("w" in mode or "a" in mode or "+" in mode):
                roots = self.roots_of(node.args[0]) if node.args \
                    else frozenset()
                op = FsOp(kind="open_w", line=node.lineno,
                          col=node.col_offset + 1, path_roots=roots)
                self._open_ops.append((op, roots))
        elif fs_call in ("os.path.exists", "os.path.isfile", "os.listdir"):
            if node.args and \
                    "shards" in state_roots(self.roots_of(node.args[0])):
                self._shards_probe_lines.append(node.lineno)

        # Call sites + parameter bindings into project functions.
        callee = self._resolve_callee(node)
        if callee is not None:
            self.summary.call_sites.append(CallSite(
                callee=callee, line=node.lineno,
                col=node.col_offset + 1, in_finally=in_finally))
            self._bind_arguments(node, callee)

    @staticmethod
    def _open_mode(node: ast.Call) -> str:
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            return node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                return kw.value.value
        return ""

    def _resolve_callee(self, node: ast.Call) -> Optional[str]:
        return self.resolver.resolve_callable(node.func)

    def _bind_arguments(self, node: ast.Call, callee: str) -> None:
        fn = self.project.function(callee)
        if fn is None:
            return
        params = fn.params
        if fn.class_name is not None and params and \
                params[0] in ("self", "cls") and \
                not self._is_class_receiver(node):
            params = params[1:]
        for position, arg in enumerate(node.args):
            if position >= len(params):
                break
            param = params[position]
            if isinstance(arg, ast.Name) and arg.id in self.params and \
                    arg.id not in self.env:
                self.summary.param_passes.append((arg.id, callee, param))
            roots = self.roots_of(arg)
            if state_roots(roots):
                self.summary.state_arg_passes.append(StateArgPass(
                    callee=callee, param=param, roots=roots,
                    line=node.lineno, col=node.col_offset + 1))

    def _is_class_receiver(self, node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute) or \
                not isinstance(func.value, ast.Name):
            return False
        name = func.value.id
        return any(q.rsplit(".", 1)[-1] == name
                   for q in self.project.classes)

    # -- loops -------------------------------------------------------------

    def _scan_loop(self, node) -> None:
        if not self._iter_is_unordered_fs(node.iter):
            return
        emits_direct = False
        callees: List[str] = []
        for sub in ast.walk(node):
            if sub is node or not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in ("emit", "emit_stamped"):
                emits_direct = True
            callee = self._resolve_callee(sub)
            if callee is not None:
                callees.append(callee)
        self.summary.loops.append(LoopSite(
            line=node.iter.lineno, col=node.iter.col_offset + 1,
            emits_direct=emits_direct, body_callees=tuple(callees)))

    def _scan_comprehension(self, node) -> None:
        for gen in node.generators:
            if not self._iter_is_unordered_fs(gen.iter):
                continue
            emits_direct = any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("emit", "emit_stamped")
                for sub in ast.walk(node))
            callees = [c for c in (self._resolve_callee(sub)
                       for sub in ast.walk(node)
                       if isinstance(sub, ast.Call)) if c is not None]
            self.summary.loops.append(LoopSite(
                line=gen.iter.lineno, col=gen.iter.col_offset + 1,
                emits_direct=emits_direct, body_callees=tuple(callees)))

    def _iter_is_unordered_fs(self, node: ast.AST,
                              depth: int = 0) -> bool:
        if depth > 8:
            return False
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            return bound is not None and \
                self._iter_is_unordered_fs(bound, depth + 1)
        if not isinstance(node, ast.Call):
            return False
        dotted = self.ctx.resolve(node.func)
        if dotted in _UNORDERED_FS_SOURCES:
            return True
        if _io_seam_canonical(dotted) == "os.listdir":
            return True
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "iterdir":
            return True
        # sorted(...) (or any other wrapper) restores a defined order.
        return False

    # -- post-pass ---------------------------------------------------------

    def _resolve_atomic_publish(self) -> None:
        """An ``open(tmp, "w")`` whose tmp-suffixed path shares a root
        with a later rename source is the sanctioned atomic publish."""
        for op, roots in self._open_ops:
            atomic = False
            if "suffixed" in roots:
                bare = {r for r in roots if r != "suffixed"}
                for src in self._rename_src_roots:
                    if bare & src or not bare:
                        atomic = True
                        break
            self.summary.fs_ops.append(dataclasses.replace(
                op, atomic_publish=atomic))


def summarize(project: Project) -> Dict[str, Summary]:
    """One direct-effect :class:`Summary` per project function."""
    return {qualname: _FunctionScanner(project, fn).scan()
            for qualname, fn in project.functions.items()}


def propagate(project: Project, graph: CallGraph,
              summaries: Dict[str, Summary]) -> Dict[str, Summary]:
    """Close transitive effects over the call graph to a fixpoint.

    All propagated facts are monotone (bools that only flip to True,
    sets that only grow), so iteration terminates even on mutual
    recursion -- the property the call-graph cycle test pins.
    """
    for summary in summaries.values():
        summary.emits_trans = summary.emits
        summary.acquires_trans = summary.acquires
        summary.releases_trans = bool(summary.release_sites)
        summary.unatomic_write_params = {
            param for op in summary.fs_ops
            if op.kind == "open_w" and not op.atomic_publish
            for root in op.path_roots if root.startswith("param:")
            for param in (root.split(":", 1)[1],)}
    changed = True
    while changed:
        changed = False
        for qualname, summary in summaries.items():
            for callee in graph.callees(qualname):
                sub = summaries.get(callee)
                if sub is None:
                    continue
                for flag in ("emits_trans", "acquires_trans",
                             "releases_trans"):
                    if getattr(sub, flag) and not getattr(summary, flag):
                        setattr(summary, flag, True)
                        changed = True
            for own_param, callee, callee_param in summary.param_passes:
                sub = summaries.get(callee)
                if sub is None:
                    continue
                if callee_param in sub.unatomic_write_params and \
                        own_param not in summary.unatomic_write_params:
                    summary.unatomic_write_params.add(own_param)
                    changed = True
    return summaries
