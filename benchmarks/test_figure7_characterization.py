"""Bench for Figure 7: the {NYX, QMC, MT1..4} x {BF, SW, DW} grid.

This is the paper's headline experiment.  Each application gets its own
bench so timings and failures are attributable; every bench asserts the
qualitative shape of its row block.  ``REPRO_FI_RUNS`` scales the
campaigns (paper: 1,000 per cell).
"""

from repro.analysis.tables import render_outcome_grid
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.outcomes import Outcome
from repro.experiments.params import default_runs, montage_default, nyx_default, qmcpack_default
from repro.study.registry import FAULT_MODELS, MONTAGE_STAGES, PAPER_NOTES

from conftest import run_once

RUNS = default_runs(150)


def _cell(app, fm, phase=None):
    return Campaign(app, CampaignConfig(fault_model=fm, n_runs=RUNS, seed=1,
                                        phase=phase)).run()


def _cells_report(cells):
    grid = render_outcome_grid(cells)
    notes = "\n".join(f"  paper {label}: {PAPER_NOTES[label]}"
                      for label in cells if label in PAPER_NOTES)
    return grid + notes + "\n"


def test_figure7_nyx(benchmark, save_report):
    app = nyx_default()

    def run_nyx_row():
        return {f"NYX-{fm}": _cell(app, fm) for fm in FAULT_MODELS}

    cells = run_once(benchmark, run_nyx_row)
    save_report("figure7_nyx", _cells_report(cells))

    bf, sw, dw = cells["NYX-BF"], cells["NYX-SW"], cells["NYX-DW"]
    # Paper: BF 91.1 % benign, 0.8 % SDC (lowest of the apps).
    assert bf.rate(Outcome.BENIGN) > 0.80
    assert bf.rate(Outcome.SDC) < 0.10
    # Paper: SW fully masked by the halo finder.
    assert sw.rate(Outcome.BENIGN) > 0.75
    # Paper: DW 1000/1000 SDC; at our scale a small fraction of drops hit
    # the metadata/flag writes and crash instead.
    assert dw.rate(Outcome.SDC) > 0.90
    assert dw.rate(Outcome.BENIGN) == 0.0


def test_figure7_qmcpack(benchmark, save_report):
    app = qmcpack_default()

    def run_qmc_row():
        return {f"QMC-{fm}": _cell(app, fm) for fm in FAULT_MODELS}

    cells = run_once(benchmark, run_qmc_row)
    save_report("figure7_qmcpack", _cells_report(cells))

    bf, sw, dw = cells["QMC-BF"], cells["QMC-SW"], cells["QMC-DW"]
    # Paper: ~60 % SDC under BF, ~37 % benign -- QMCPACK is the least
    # resilient app because the DMC restart file propagates faults.
    assert bf.rate(Outcome.SDC) > 0.30
    assert 0.15 < bf.rate(Outcome.BENIGN) < 0.70
    # Paper: SW 54 % SDC, essentially no detected.
    assert sw.rate(Outcome.SDC) > 0.35
    assert sw.rate(Outcome.DETECTED) < 0.15
    # Paper: DW has the most detected (43 %) and some crash (12 %).
    assert dw.rate(Outcome.DETECTED) > bf.rate(Outcome.DETECTED)
    assert dw.rate(Outcome.DETECTED) > sw.rate(Outcome.DETECTED)
    assert dw.rate(Outcome.CRASH) > 0.03


def test_figure7_montage(benchmark, save_report):
    app = montage_default()

    def run_montage_block():
        cells = {}
        for fm in FAULT_MODELS:
            for i, stage in enumerate(MONTAGE_STAGES, start=1):
                cells[f"MT{i}-{fm}"] = _cell(app, fm, stage)
        return cells

    cells = run_once(benchmark, run_montage_block)
    save_report("figure7_montage", _cells_report(cells))

    bf_sdc = [cells[f"MT{i}-BF"].rate(Outcome.SDC) for i in range(1, 5)]
    sw_sdc = [cells[f"MT{i}-SW"].rate(Outcome.SDC) for i in range(1, 5)]
    dw_sdc = [cells[f"MT{i}-DW"].rate(Outcome.SDC) for i in range(1, 5)]

    # Paper: BF rates stay relatively stable and low across stages.
    assert max(bf_sdc) < 0.45
    assert max(bf_sdc) - min(bf_sdc) < 0.35
    # Paper: mDiffExec (MT2) has the lowest BF SDC rate -- its output only
    # feeds plane-fit coefficients.
    assert bf_sdc[1] <= min(bf_sdc) + 0.05
    # Paper: DW varies far more drastically across stages than BF.
    assert max(dw_sdc) - min(dw_sdc) > max(bf_sdc) - min(bf_sdc)
    # SW sits between: substantial SDC in at least one stage.
    assert max(sw_sdc) > 0.25
