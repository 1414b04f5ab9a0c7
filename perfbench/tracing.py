"""Per-layer tracing for the campaign benchmark.

The benchmark measures layers from its own files: :func:`install` wraps
public functions of the program's modules (by replacing the module or
class attribute the program looks up at call time) and records how long
each call took and what it did.  Nothing inside ``src/`` changes.

Every process keeps its spans in memory and appends them to
``<trace dir>/trace-<pid>.jsonl`` when :meth:`Tracer.flush` runs.
Wrappers are installed in the round's driver before the pool or fleet
forks, so workers inherit them.  Forked workers leave through
``os._exit`` without running ``atexit`` hooks, so they flush once per
chunk (pool) or per settled lease (fleet).  :func:`aggregate` merges the
files into the per-layer metrics.

All times come from ``time.perf_counter``, which on Linux reads
``CLOCK_MONOTONIC`` and is comparable across processes.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """One process's span buffer plus the state of the run in flight."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.events: List[Dict[str, Any]] = []
        #: name -> [calls, total seconds, latest end time]
        self.spans: Dict[str, List[float]] = {}
        #: name -> largest value seen
        self.peaks: Dict[str, float] = {}
        #: Per-run accumulator while ``execute_run_spec`` is active.
        self.run: Optional[Dict[str, Any]] = None
        self.progressed = 0
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """A forked child starts with an empty buffer: the parent still
        owns (and flushes) whatever it had recorded."""
        self.events = []
        self.spans = {}
        self.peaks = {}
        self.run = None

    def span(self, name: str, start: float, end: float) -> None:
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] = max(entry[2], end)

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def event(self, kind: str, **fields: Any) -> None:
        fields["kind"] = kind
        self.events.append(fields)

    def progress(self, completed: int, total: int) -> None:
        """``progress`` callback: counts records the sweep reported."""
        self.progressed += 1

    def flush(self) -> None:
        if not (self.events or self.spans or self.peaks):
            return
        lines = [json.dumps(e) for e in self.events]
        lines.append(json.dumps({"kind": "spans", "spans": self.spans,
                                 "peaks": self.peaks}))
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        self.events = []
        self.spans = {}
        self.peaks = {}

    # -- the per-run accumulator --------------------------------------------

    def add(self, field: str, seconds: float) -> None:
        if self.run is not None:
            self.run[field] = self.run.get(field, 0.0) + seconds

    def fs_factory(self, real: Callable) -> Callable:
        """*real* timed inside runs, keeping the fs for its op counters.
        The file-system factory is an argument of ``Study``, not a
        module attribute, so the round passes this wrapper in."""

        def make():
            run = self.run
            if run is None:
                return real()
            t0 = perf_counter()
            fs = real()
            self.add("fs_factory_s", perf_counter() - t0)
            run["fs"] = fs
            return fs

        return make


def _timed(tracer: Tracer, field: str, real: Callable) -> Callable:
    """Wrap *real* so its time inside a run lands in the run's *field*.
    A nested call of the same field (a subclass calling ``super()``) is
    not counted twice."""

    @functools.wraps(real)
    def wrapper(*args, **kwargs):
        run = tracer.run
        if run is None or field in run["open"]:
            return real(*args, **kwargs)
        run["open"].add(field)
        t0 = perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            tracer.add(field, perf_counter() - t0)
            run[field + "#"] = run.get(field + "#", 0) + 1
            run["open"].discard(field)

    return wrapper


def _spanned(tracer: Tracer, name: str, real: Callable,
             after: Optional[Callable[[Any, float, float], None]] = None
             ) -> Callable:
    """Wrap *real* so every call is a span named *name*."""

    @functools.wraps(real)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        result = real(*args, **kwargs)
        t1 = perf_counter()
        tracer.span(name, t0, t1)
        if after is not None:
            after(result, t0, t1)
        return result

    return wrapper


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def install(out_dir: str) -> Tracer:
    """Wrap every traced layer in this process and return the tracer."""
    import repro.apps.montage.app  # noqa: F401 - registers the subclass
    import repro.apps.nyx.app as nyx_app
    import repro.apps.qmcpack.app  # noqa: F401 - registers the subclass
    import repro.core.campaign  # noqa: F401 - registers InjectionContext
    import repro.core.engine.dist.coordinator as coordinator
    import repro.core.engine.dist.merge as merge
    import repro.core.engine.dist.worker as worker
    import repro.core.engine.executor as executor
    import repro.core.engine.runner as runner
    import repro.core.metadata_campaign  # noqa: F401 - registers its context
    from repro.apps.base import HpcApplication, RunStep
    from repro.core.engine.dist.queue import FileQueue
    from repro.core.engine.plan import ExecutionContext
    from repro.core.engine.replay import replay_boundary
    from repro.core.engine.sink import JsonlSink
    from repro.fusefs.vfs import FFISFileSystem

    tracer = Tracer(out_dir)

    # -- core.engine.runner: one span per run, children fill the run ------
    real_execute = runner.execute_run_spec

    @functools.wraps(real_execute)
    def execute_run_spec(context, spec):
        image = getattr(context.golden, "replay", None)
        tracer.run = {
            "app": context.app.name,
            "start": replay_boundary(context, spec),
            "n_steps": len(image.steps) if image is not None
            else len(context.app.steps() or ()),
            "live": set(), "phases": defaultdict(float),
            "crashed_at": None, "fs": None, "open": set(),
        }
        t0 = perf_counter()
        try:
            return real_execute(context, spec)
        finally:
            t1 = perf_counter()
            run, tracer.run = tracer.run, None
            tracer.event("run", **_run_fields(run, t0, t1))

    runner.execute_run_spec = execute_run_spec
    # The dist worker and coordinator imported the name: rebind it there.
    worker.execute_run_spec = execute_run_spec
    coordinator.execute_run_spec = execute_run_spec

    # -- fs_factory / arm / post_execute (context layer) -------------------
    for cls in _subclasses(ExecutionContext):
        for name, field in (("arm", "arm_s"), ("post_execute", "post_s")):
            if name in vars(cls):
                setattr(cls, name, _timed(tracer, field, vars(cls)[name]))

    FFISFileSystem.restore = _timed(tracer, "restore_s",
                                    FFISFileSystem.restore)

    # -- apps: live steps by phase, classification -------------------------
    def timed_step(index: int, step) -> Callable:
        fn = step.fn

        def run_step(mp, carry):
            run = tracer.run
            if run is None:
                return fn(mp, carry)
            t0 = perf_counter()
            try:
                return fn(mp, carry)
            except BaseException:
                run["crashed_at"] = index
                raise
            finally:
                dt = perf_counter() - t0
                run["phases"][step.phase] += dt
                run["live"].add(index)
                tracer.add("steps_s", dt)

        return run_step

    def wrap_steps(real: Callable) -> Callable:
        @functools.wraps(real)
        def steps(self):
            out = real(self)
            if out is None:
                return out
            return tuple(RunStep(s.name, s.phase, timed_step(i, s))
                         for i, s in enumerate(out))

        return steps

    for cls in _subclasses(HpcApplication):
        if "steps" in vars(cls):
            cls.steps = wrap_steps(vars(cls)["steps"])
        if "classify" in vars(cls):
            cls.classify = _timed(tracer, "classify_s", vars(cls)["classify"])
    nyx = nyx_app.NyxApplication
    nyx.read_density = _timed(tracer, "read_s", nyx.read_density)
    nyx.find_halos = _timed(tracer, "halos_s", nyx.find_halos)

    # -- capture ------------------------------------------------------------
    def captured(golden, t0, t1):
        image = getattr(golden, "replay", None)
        tracer.event("capture", s=t1 - t0,
                     boundaries=len(image.boundaries) if image else 0)

    HpcApplication.capture_golden = _spanned(
        tracer, "capture", HpcApplication.capture_golden, captured)

    # -- sink and the sweep's reorder buffer ---------------------------------
    JsonlSink.emit_stamped = _spanned(tracer, "sink.emit",
                                      JsonlSink.emit_stamped)

    def wrap_map_tagged(real: Callable) -> Callable:
        @functools.wraps(real)
        def map_tagged(self, contexts, items):
            yielded = 0
            for item in real(self, contexts, items):
                yielded += 1
                yield item
                tracer.peak("sweep.reorder_peak",
                            yielded - tracer.progressed)

        return map_tagged

    for cls in (executor.SerialExecutor, executor.ParallelExecutor):
        cls.map_tagged = wrap_map_tagged(cls.map_tagged)

    # -- core.engine.executor: pool workers flush once per chunk -----------
    real_span = executor._run_span

    @functools.wraps(real_span)
    def run_span(start, stop):
        try:
            return real_span(start, stop)
        finally:
            tracer.flush()

    # Same module and qualname as the original, so the pool pickles the
    # task by reference and the forked worker resolves this wrapper.
    executor._run_span = run_span

    # -- core.engine.dist ---------------------------------------------------
    Coordinator = coordinator.Coordinator
    Coordinator.post = _spanned(tracer, "dist.post", Coordinator.post)

    def finished(result, t0, t1):
        _, stats = result
        tracer.event("finish", t0=t0, t1=t1, duplicates=stats.duplicates)

    Coordinator.finish = _spanned(tracer, "dist.finish", Coordinator.finish,
                                  finished)
    coordinator.merge_shards = _spanned(tracer, "dist.merge",
                                        coordinator.merge_shards)
    merge.merge_shards = _spanned(tracer, "dist.merge", merge.merge_shards)

    real_claim = FileQueue.claim

    @functools.wraps(real_claim)
    def claim(self, worker_id):
        t0 = perf_counter()
        got = real_claim(self, worker_id)
        tracer.span("dist.claim" if got is not None else "dist.claim_empty",
                    t0, perf_counter())
        return got

    FileQueue.claim = claim
    FileQueue.heartbeat = _spanned(tracer, "dist.heartbeat",
                                   FileQueue.heartbeat)
    FileQueue.publish_segment = _spanned(tracer, "dist.publish_segment",
                                         FileQueue.publish_segment)
    FileQueue.complete = _spanned(tracer, "dist.complete", FileQueue.complete,
                                  lambda *_: tracer.flush())

    real_worker = coordinator.run_worker

    @functools.wraps(real_worker)
    def run_worker(*args, **kwargs):
        try:
            stats = real_worker(*args, **kwargs)
            tracer.event("worker", leases=stats.leases, runs=stats.runs,
                         retries=stats.retries, failures=stats.failures)
            return stats
        finally:
            tracer.flush()

    coordinator.run_worker = run_worker
    return tracer


def _run_fields(run: Dict[str, Any], t0: float, t1: float) -> Dict[str, Any]:
    """The finished run as one flat event."""
    n = run["n_steps"]
    start = run["start"]
    live = run["live"]
    limit = n if run["crashed_at"] is None else run["crashed_at"]
    first = max(start, 0)
    # Steps the run neither restored nor executed were fast-forwarded
    # from the golden image -- unless a live step crashed before them.
    spliced = sum(1 for j in range(first, limit) if j not in live)
    fs = run["fs"]
    ops = sum(fs.interposer.counters_snapshot().values()) if fs else 0
    fields = {k: v for k, v in run.items()
              if k.endswith("_s") or k.endswith("#")}
    fields.update(pid=os.getpid(), t0=t0, t1=t1, app=run["app"],
                  start=start, n_steps=n, live=len(live), spliced=spliced,
                  phases=dict(run["phases"]), ops=ops)
    return fields


# -- merging the per-process files --------------------------------------------


#: The live-step phases each application reports, in run order.
APP_PHASES: Dict[str, tuple] = {
    "nyx": ("checkpoint",),
    "qmcpack": ("vmc", "dmc"),
    "montage": ("stage_raw", "mProjExec", "mDiffExec", "mBgExec", "mAdd"),
}


def _quantile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def aggregate(out_dir: str, *, execute_t0: float, execute_t1: float,
              parallel: int, distributed: bool,
              fault_free_runs: int) -> Dict[str, float]:
    """The per-layer metrics of one traced round."""
    runs: List[Dict[str, Any]] = []
    captures: List[Dict[str, Any]] = []
    finishes: List[Dict[str, Any]] = []
    workers: List[Dict[str, Any]] = []
    spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    peaks: Dict[str, float] = defaultdict(float)
    for path in sorted(glob.glob(os.path.join(out_dir, "trace-*.jsonl"))):
        with open(path, encoding="utf-8") as f:
            for line in f:
                event = json.loads(line)
                kind = event.pop("kind")
                if kind == "run":
                    runs.append(event)
                elif kind == "capture":
                    captures.append(event)
                elif kind == "finish":
                    finishes.append(event)
                elif kind == "worker":
                    workers.append(event)
                elif kind == "spans":
                    for name, (n, total, end) in event["spans"].items():
                        entry = spans[name]
                        entry[0] += n
                        entry[1] += total
                        entry[2] = max(entry[2], end)
                    for name, value in event["peaks"].items():
                        peaks[name] = max(peaks[name], value)

    def total(field: str, rows=None) -> float:
        return sum(r.get(field, 0.0) for r in (runs if rows is None else rows))

    def mean_per_call(field: str, rows=None) -> float:
        calls = total(field + "#", rows)
        return total(field, rows) / calls if calls else 0.0

    def span_mean(*names: str) -> float:
        calls = sum(spans[n][0] for n in names)
        return sum(spans[n][1] for n in names) / calls if calls else 0.0

    n_runs = len(runs)
    durations = sorted(r["t1"] - r["t0"] for r in runs)
    busy = sum(durations)
    children = sum(total(f) for f in ("fs_factory_s", "arm_s", "restore_s",
                                      "steps_s", "post_s", "classify_s"))
    replayed = [r for r in runs if r["start"] >= 0]
    m: Dict[str, float] = {
        "capture.golden_s": sum(c["s"] for c in captures),
        "capture.fault_free_runs": fault_free_runs,
        "capture.boundaries": sum(c["boundaries"] for c in captures),
        "runner.run_ms.p50": _quantile(durations, 50) * 1e3 if runs else 0.0,
        "runner.run_ms.p99": _quantile(durations, 99) * 1e3 if runs else 0.0,
        "runner.fs_factory_us": total("fs_factory_s") / max(n_runs, 1) * 1e6,
        "runner.arm_us": total("arm_s") / max(n_runs, 1) * 1e6,
        "runner.post_execute_us": total("post_s") / max(n_runs, 1) * 1e6,
        "runner.residual_frac": 1.0 - children / busy if busy else 0.0,
        "replay.cold_frac": (n_runs - len(replayed)) / max(n_runs, 1),
        "replay.start_frac": (
            sum(r["start"] / r["n_steps"] for r in replayed if r["n_steps"])
            / len(replayed) if replayed else 0.0),
        "replay.spliced_frac": (sum(r["spliced"] for r in runs)
                                / max(sum(r["n_steps"] for r in runs), 1)),
        "replay.restore_us": mean_per_call("restore_s") * 1e6,
        "fusefs.ops_per_run": sum(r["ops"] for r in runs) / max(n_runs, 1),
        "sink.emit_us": span_mean("sink.emit") * 1e6,
        "sweep.reorder_peak": peaks["sweep.reorder_peak"],
    }
    for app, phases in APP_PHASES.items():
        rows = [r for r in runs if r["app"] == app]
        for phase in phases:
            m[f"apps.{app}.{phase}_s"] = sum(r["phases"].get(phase, 0.0)
                                            for r in rows)
        m[f"apps.{app}.steps_live"] = sum(r["live"] for r in rows)
        m[f"classify.{app}_ms"] = mean_per_call("classify_s", rows) * 1e3
    m["mhdf5.read_ms"] = mean_per_call("read_s") * 1e3
    m["nyx.find_halos_ms"] = mean_per_call("halos_s") * 1e3

    # Executor-layer shape: busy share, first record, tail.  Serial and
    # pool rounds report it as pool.*, fleet rounds as dist.*.
    wall = execute_t1 - execute_t0
    last_by_pid: Dict[int, float] = {}
    for r in runs:
        last_by_pid[r["pid"]] = max(last_by_pid.get(r["pid"], 0.0), r["t1"])
    shape = {
        "busy_frac": busy / (parallel * wall) if wall > 0 else 0.0,
        "first_record_s": (min(r["t1"] for r in runs) - execute_t0
                           if runs else 0.0),
        "tail_s": (execute_t1 - min(last_by_pid.values())
                   if last_by_pid else 0.0),
    }
    active, idle = ("dist", "pool") if distributed else ("pool", "dist")
    for name in ("busy_frac", "tail_s"):
        m[f"{active}.{name}"] = shape[name]
        m[f"{idle}.{name}"] = 0.0
    m["pool.first_record_s"] = 0.0 if distributed else shape["first_record_s"]

    finish_t0 = min((f["t0"] for f in finishes), default=0.0)
    last_publish = spans["dist.complete"][2]
    m.update({
        "dist.post_ms": span_mean("dist.post") * 1e3,
        "dist.claims": spans["dist.claim"][0],
        "dist.empty_claims": spans["dist.claim_empty"][0],
        "dist.claim_ms": span_mean("dist.claim", "dist.claim_empty") * 1e3,
        "dist.heartbeat_us": span_mean("dist.heartbeat") * 1e6,
        "dist.publish_ms": (
            (spans["dist.publish_segment"][1] + spans["dist.complete"][1])
            / spans["dist.complete"][0] * 1e3
            if spans["dist.complete"][0] else 0.0),
        "dist.settle_lag_ms": ((finish_t0 - last_publish) * 1e3
                               if finishes and last_publish else 0.0),
        "dist.finish_ms": sum(f["t1"] - f["t0"] for f in finishes) * 1e3,
        "dist.merges": spans["dist.merge"][0],
        "dist.duplicates": sum(f["duplicates"] for f in finishes),
        "dist.retries": sum(w["retries"] for w in workers),
        "dist.failures": sum(w["failures"] for w in workers),
    })
    return m
