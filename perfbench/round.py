"""One benchmark round in a fresh interpreter.

    python3 perfbench/round.py --workload fig7-serial --seed 1 --tmp DIR [--trace]

Imports the program from ``src/`` of the checkout this file sits in,
builds the workload's study spec, and then times the public study path:
``Study(spec)``, ``.plan()``, ``.execute(...)`` writing a results file
under ``DIR``.  Prints one JSON object as its last line: the end-to-end
figures, the results file's SHA-256, the planned and missing
``(cell, run)`` pairs, and with ``--trace`` the per-layer metrics.

A fresh interpreter per round keeps peak RSS and allocator state
specific to the round.  ``REPRO_NO_REPLAY=1`` in the environment gives
the engine's cold reference path (the runner sets it for reference
rounds).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
import traceback

from tracing import aggregate, install
from workloads import WORKLOADS, build_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _threads() -> int:
    """Threads of this process (BLAS pools start at numpy import)."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _reap_children(timeout: float = 30.0) -> None:
    """Join every worker so its peak RSS reaches RUSAGE_CHILDREN."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        for proc in multiprocessing.active_children():
            proc.join(timeout=0.5)


def _missing_pairs(plan, result) -> int:
    missing = 0
    for compiled in plan.cells:
        planned = {spec.run_index for spec in compiled.cell.plan.specs}
        got = {record.run_index for record in result.cell(compiled.key)}
        missing += len(planned - got)
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="serial cold reference round (digest only)")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import numpy

    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    import repro.study.dist  # noqa: F401 - the fleet path imports lazily
    from repro.fusefs.vfs import FFISFileSystem
    from repro.study.apps import resolve_app_factory
    from repro.study.study import Study

    workload = WORKLOADS[args.workload]
    if args.reference and not os.environ.get("REPRO_NO_REPLAY"):
        raise SystemExit("a reference round needs REPRO_NO_REPLAY=1")
    spec = build_spec(args.seed)
    for app_id in spec.app_ids():
        resolve_app_factory(app_id)  # import the app modules now
    results_path = os.path.join(args.tmp, "results.jsonl")
    knobs = {"results_path": results_path}
    if args.reference:
        knobs["workers"] = 1
    elif workload.hosts > 1:
        knobs.update(hosts=workload.hosts,
                     queue_root=os.path.join(args.tmp, "queue"))
    else:
        knobs["workers"] = workload.workers
    study_knobs = {}
    tracer = None
    if args.trace:
        trace_dir = os.path.join(args.tmp, "trace")
        os.mkdir(trace_dir)
        tracer = install(trace_dir)
        study_knobs["fs_factory"] = tracer.fs_factory(FFISFileSystem)
        if workload.hosts == 1:
            knobs["progress"] = tracer.progress
    threads = _threads()

    t0 = time.perf_counter()
    study = Study(spec, **study_knobs)
    t1 = time.perf_counter()
    plan = study.plan()
    t2 = time.perf_counter()
    error = None
    try:
        result = plan.execute(**knobs)
    except Exception:  # noqa: BLE001 - a raising round counts as failed
        result = None
        error = traceback.format_exc()
    t3 = time.perf_counter()
    _reap_children()

    planned = len(plan)
    failed = planned if result is None else _missing_pairs(plan, result)
    digest = None
    if os.path.exists(results_path):
        with open(results_path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    out = {
        "workload": workload.name, "seed": args.seed,
        "planned": planned, "failed": failed, "error": error,
        "digest": digest,
        "study_s": t3 - t0, "setup_s": t2 - t1, "execute_s": t3 - t2,
        "runs_per_s": planned / (t3 - t2),
        "peak_rss_mb": own_rss,
        # Serial rounds execute every run in the driver itself.
        "worker_peak_rss_mb": child_rss if workload.parallel > 1
        else own_rss,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "threads_per_process": threads},
    }
    if tracer is not None:
        tracer.flush()
        out["layers"] = aggregate(
            trace_dir, execute_t0=t2, execute_t1=t3,
            parallel=workload.parallel,
            distributed=workload.hosts > 1,
            fault_free_runs=plan.cache.fault_free_runs())
    print(json.dumps(out))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
