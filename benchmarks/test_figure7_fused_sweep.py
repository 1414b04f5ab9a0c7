"""Bench: the fused Figure 7 sweep vs the sequential-cells baseline.

The PR 1 engine ran the 18-cell grid as 18 isolated ``Campaign.run()``
calls, each paying its own fault-free profile + golden capture -- the
same Montage pair re-executed twelve times for bit-identical results.
The fused sweep plans the whole grid against one shared cache (one
fault-free pair per distinct application) and dispatches every cell's
specs through one executor.

This bench times both styles on the same reduced grid, asserts the
fused sweep is record-for-record identical to the sequential cells
(fusion changes cost, not science), and asserts it is measurably
faster -- which here comes from *deleting* redundant fault-free runs,
so it holds even on a single-core host.
"""

from __future__ import annotations

import time

from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.experiments.params import (
    default_runs,
    montage_default,
    nyx_default,
    qmcpack_default,
)
from repro.study import Study
from repro.study.registry import FAULT_MODELS, MONTAGE_STAGES, figure7_spec

#: Runs per cell.  Small enough that the 2-per-cell fault-free overhead
#: the fusion deletes is a visible fraction of the total; the full-scale
#: grid benches live in test_figure7_characterization.py.
RUNS = default_runs(8)


def _cell(app, fm, phase=None):
    return Campaign(app, CampaignConfig(fault_model=fm, n_runs=RUNS, seed=1,
                                        phase=phase)).run()


def _sequential_cells(apps):
    """The PR 1 baseline: one isolated Campaign.run() per cell."""
    cells = {}
    for fm in FAULT_MODELS:
        cells[f"NYX-{fm}"] = _cell(apps["nyx"], fm)
        cells[f"QMC-{fm}"] = _cell(apps["qmcpack"], fm)
        for i, stage in enumerate(MONTAGE_STAGES, start=1):
            cells[f"MT{i}-{fm}"] = _cell(apps["montage"], fm, stage)
    return cells


def test_figure7_fused_sweep_beats_sequential_cells(benchmark, save_report,
                                                    save_engine_baseline):
    apps = {"nyx": nyx_default(), "qmcpack": qmcpack_default(),
            "montage": montage_default()}

    start = time.perf_counter()
    sequential = _sequential_cells(apps)
    sequential_s = time.perf_counter() - start

    def fused_run():
        return Study(figure7_spec(n_runs=RUNS), apps=apps).run()

    start = time.perf_counter()
    fused = benchmark.pedantic(fused_run, rounds=1, iterations=1,
                               warmup_rounds=0)
    fused_s = time.perf_counter() - start

    # Fusion changes cost, not science: every cell record-identical.
    assert set(fused.keys()) == set(sequential)
    for label, cell in sequential.items():
        assert fused.cell(label) == cell.records

    n_cells = len(sequential)
    sequential_fault_free = n_cells              # golden capture per cell
    speedup = sequential_s / fused_s if fused_s else float("inf")
    save_report("figure7_fused_sweep", (
        f"Figure 7 grid ({n_cells} cells x {RUNS} runs), sequential "
        "cells vs fused sweep\n"
        f"  sequential cells : {sequential_s:8.2f} s "
        f"({sequential_fault_free} fault-free runs)\n"
        f"  fused sweep      : {fused_s:8.2f} s "
        f"({fused.fault_free_runs} fault-free runs)\n"
        f"  speedup          : {speedup:8.2f}x\n"
        "  records identical: True\n"))
    save_engine_baseline("figure7_fused_sweep", {
        "cells": n_cells,
        "runs_per_cell": RUNS,
        "sequential_wall_s": round(sequential_s, 3),
        "fused_wall_s": round(fused_s, 3),
        "fault_free_runs": fused.fault_free_runs,
        "speedup": round(speedup, 2),
        "records_identical": True,
    })

    # The fused sweep runs 3 shared golden captures instead of 18
    # (profiles are derived from the captures, not executed).
    assert fused.fault_free_runs == len(apps)
    # Fewer application executions must mean less wall clock, serial on
    # any host; margin kept loose so bench noise doesn't flake it.
    assert fused_s < sequential_s, (
        f"fused sweep {fused_s:.2f}s not faster than sequential "
        f"cells {sequential_s:.2f}s")
