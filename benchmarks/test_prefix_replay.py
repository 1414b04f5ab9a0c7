"""Bench: the prefix-replay engine vs cold execution on the Figure 7 grid.

The PR 4 engine (fused sweep) already runs each distinct application's
fault-free work once per sweep, but every *faulty* run still re-executes
the whole deterministic application from an empty file system -- even
though, by construction, it is byte-identical to the golden run up to
its injection point.  The prefix-replay engine restores the golden
snapshot at the last step boundary before the injection point and
fast-forwards every suffix step the fault provably cannot influence.

This bench runs the full 18-cell Figure 7 grid both ways, asserts the
two record streams are byte-identical (replay changes cost, not
science), and asserts the replay engine is at least 1.8x faster.  The
committed study fixtures (``tests/data/study_figure7.jsonl``) pin the
same records against the pre-replay engine's checkpoints, so the
speedup is measured against an unchanged baseline.
"""

from __future__ import annotations

import time

from repro.experiments.params import (
    default_runs,
    montage_default,
    nyx_default,
    qmcpack_default,
)
from repro.study import Study
from repro.study.registry import figure7_spec

#: Runs per cell.  The replay win scales with campaign size (the golden
#: capture is a fixed cost both engines pay once); 8 per cell is enough
#: for a stable measurement at bench time scales.
RUNS = default_runs(8)

#: The floor the replay engine must clear over cold execution.
MIN_SPEEDUP = 1.8


def _apps():
    return {"nyx": nyx_default(), "qmcpack": qmcpack_default(),
            "montage": montage_default()}


def _figure7():
    return Study(figure7_spec(n_runs=RUNS), apps=_apps()).run()


def test_prefix_replay_beats_cold_execution(benchmark, save_report,
                                            save_engine_baseline,
                                            monkeypatch):
    # The PR 4 baseline: the same fused sweep, every faulty run cold.
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    start = time.perf_counter()
    cold = _figure7()
    cold_s = time.perf_counter() - start
    monkeypatch.delenv("REPRO_NO_REPLAY")

    start = time.perf_counter()
    replayed = benchmark.pedantic(_figure7, rounds=1, iterations=1,
                                  warmup_rounds=0)
    replayed_s = time.perf_counter() - start

    # Replay changes cost, not science: every cell record-identical.
    assert replayed.keys() == cold.keys()
    identical = all(replayed.cell(label) == cold.cell(label)
                    for label in cold.keys())
    assert identical

    n_runs = len(cold)
    speedup = cold_s / replayed_s if replayed_s else float("inf")
    save_report("prefix_replay", (
        f"Figure 7 grid ({len(cold.keys())} cells x {RUNS} runs), cold "
        "execution vs prefix replay\n"
        f"  cold (PR 4 engine): {cold_s:8.2f} s "
        f"({n_runs / cold_s:6.1f} runs/s)\n"
        f"  prefix replay     : {replayed_s:8.2f} s "
        f"({n_runs / replayed_s:6.1f} runs/s)\n"
        f"  speedup           : {speedup:8.2f}x\n"
        f"  records identical : {identical}\n"))
    save_engine_baseline("prefix_replay_figure7", {
        "cells": len(cold.keys()),
        "runs_per_cell": RUNS,
        "cold_wall_s": round(cold_s, 3),
        "replay_wall_s": round(replayed_s, 3),
        "cold_runs_per_s": round(n_runs / cold_s, 2),
        "replay_runs_per_s": round(n_runs / replayed_s, 2),
        "speedup": round(speedup, 2),
        "records_identical": identical,
    })

    assert speedup >= MIN_SPEEDUP, (
        f"prefix replay {replayed_s:.2f}s is only {speedup:.2f}x over "
        f"cold {cold_s:.2f}s (needs >= {MIN_SPEEDUP}x)")
