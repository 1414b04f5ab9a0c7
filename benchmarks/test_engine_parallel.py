"""Bench: the parallel campaign engine vs the serial reference.

Times the same ≥64-run Nyx BF campaign under the serial executor and a
4-worker process pool, asserts the two record streams are identical
(the engine's determinism contract at campaign scale), and reports the
speedup.  The speedup assertion only applies where the host actually
has multiple cores -- on a single-core box the pool degenerates to
serial execution plus fork overhead, which is exactly what the report
then shows.  Besides the host's ``cores``, the baseline records
``allowed_cpus``: the pool forks at most one worker per CPU in this
process's affinity mask, so that is the parallelism the speedup had.
"""

from __future__ import annotations

import os
import time

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.engine.executor import _allowed_cpus
from repro.experiments.params import nyx_default

N_RUNS = 64
WORKERS = 4


def test_engine_parallel_speedup(benchmark, save_report,
                                 save_engine_baseline):
    app = nyx_default()
    config = CampaignConfig(fault_model="BF", n_runs=N_RUNS, seed=21)

    start = time.perf_counter()
    serial = Campaign(app, config).run()
    serial_s = time.perf_counter() - start

    def parallel_run():
        return Campaign(app, config).run(workers=WORKERS)

    start = time.perf_counter()
    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1,
                                  warmup_rounds=0)
    parallel_s = time.perf_counter() - start

    # The determinism contract, at campaign scale.
    assert parallel.records == serial.records

    cores = os.cpu_count() or 1
    allowed_cpus = _allowed_cpus()
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    save_report("engine_parallel", (
        f"Engine: Nyx BF campaign, {N_RUNS} runs, "
        f"serial vs --workers {WORKERS} ({cores} cores, "
        f"{allowed_cpus} allowed)\n"
        f"  serial   : {serial_s:8.2f} s\n"
        f"  parallel : {parallel_s:8.2f} s\n"
        f"  speedup  : {speedup:8.2f}x\n"
        "  records identical: True\n"))
    save_engine_baseline("engine_parallel", {
        "runs": N_RUNS,
        "workers": WORKERS,
        "cores": cores,
        "allowed_cpus": allowed_cpus,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "serial_runs_per_s": round(N_RUNS / serial_s, 2),
        "parallel_runs_per_s": round(N_RUNS / parallel_s, 2),
        "speedup": round(speedup, 2),
        "records_identical": True,
    })

    if cores >= 2:
        # Measurably faster; the margin is deliberately loose so bench
        # noise on busy CI hosts doesn't flake the determinism check.
        assert parallel_s < serial_s * 0.9, (
            f"parallel {parallel_s:.2f}s not faster than "
            f"serial {serial_s:.2f}s on {cores} cores")
