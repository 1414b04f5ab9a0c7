"""Figure 7 -- the full characterization grid, as a declarative study.

{NYX, QMC, MT1..MT4} x {BF, SW, DW} outcome breakdowns, the paper's
headline result.  The grid is *data*: a registered
:class:`~repro.study.spec.StudySpec` (see
:func:`repro.study.registry.figure7_spec`) compiled through
:class:`~repro.study.Study` onto the fused sweep engine -- each distinct
application is profiled and golden-captured exactly once, every cell's
specs interleave through one worker pool, and the whole grid checkpoints
to one multiplexed JSONL file with sweep-level kill/resume.  Checkpoint
lines are byte-identical to the pre-study driver (golden-fixture
regression tested).  The driver plans through ``Study(spec).plan()`` and
renders with the registered study's renderer, like ``repro study run
figure7``.  Campaign sizes follow ``REPRO_FI_RUNS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.apps.base import HpcApplication
from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import CampaignConfig
from repro.experiments.params import default_runs
from repro.fusefs.vfs import FFISFileSystem
from repro.study.registry import FIGURE7_APPS, get_study
from repro.study.resultset import ResultSet

FAULT_MODELS = ("BF", "SW", "DW")
MONTAGE_STAGES = ("mProjExec", "mDiffExec", "mBgExec", "mAdd")

#: Cell-label prefix -> study app registry id (the driver's ``apps``
#: dict keys map onto these registry ids; one source of truth with the
#: registered spec's application axis).
APP_IDS = dict(FIGURE7_APPS)

#: Paper Fig. 7 rates for the headline cells (approximate reads of the
#: stacked bars and the surrounding text), for side-by-side reporting.
PAPER_NOTES = {
    "NYX-BF": "91.1% benign, 0.8% SDC",
    "NYX-SW": "100% benign",
    "NYX-DW": "100% SDC",
    "QMC-BF": "~60% SDC, ~37% benign",
    "QMC-SW": "54% SDC, no detected",
    "QMC-DW": "8% SDC, 43% detected, 12% crash",
    "MT1-BF": "12.8% SDC", "MT2-BF": "8% SDC", "MT3-BF": "9% SDC", "MT4-BF": "6.8% SDC",
    "MT1-SW": "56.6% SDC", "MT2-SW": "40% SDC", "MT3-SW": "52.5% SDC", "MT4-SW": "48.5% SDC",
    "MT1-DW": "83.5% SDC", "MT2-DW": "37.3% SDC", "MT3-DW": "98.3% SDC", "MT4-DW": "50.4% SDC",
}


@dataclass
class Figure7Result:
    #: The study execution's records, one cell per grid label.
    results: ResultSet
    cells: Dict[str, CampaignResult] = field(default_factory=dict)
    #: Fault-free application executions the fused sweep paid for
    #: (one golden capture per distinct app).
    fault_free_runs: int = 0
    elapsed_seconds: float = 0.0

    def cell(self, label: str) -> CampaignResult:
        return self.cells[label]

    def render(self) -> str:
        return get_study("figure7").render(self.results)


def run_figure7_cell(app: HpcApplication, fault_model: str,
                     n_runs: Optional[int] = None, seed: int = 1,
                     phase: Optional[str] = None,
                     workers: int = 1) -> CampaignResult:
    """One cell of the grid (exposed for benches that time single cells)."""
    runs = n_runs if n_runs is not None else default_runs()
    config = CampaignConfig(fault_model=fault_model, n_runs=runs,
                            seed=seed, phase=phase, workers=workers)
    return Campaign(app, config).run()


def run_figure7(n_runs: Optional[int] = None, seed: int = 1,
                include_montage_stages: bool = True,
                apps: Optional[Dict[str, HpcApplication]] = None,
                workers: int = 1,
                results_path: Optional[str] = None,
                resume: bool = False,
                fs_factory: Callable[[], FFISFileSystem] = FFISFileSystem,
                progress: Optional[Callable[[int, int], None]] = None,
                ) -> Figure7Result:
    """Run the grid fused: one study execution instead of 18 campaigns.

    ``results_path`` checkpoints the whole grid to one multiplexed
    JSONL file and ``resume=True`` re-executes only the missing
    (cell, run index) pairs of a killed sweep.
    """
    from repro.errors import ConfigError
    from repro.study import Study
    from repro.study.registry import figure7_spec

    if apps is not None:
        unknown = sorted(set(apps) - set(APP_IDS))
        if unknown:
            raise ConfigError(
                f"unknown figure7 app labels {unknown}; the grid's labels "
                f"are {sorted(APP_IDS)}")
    spec = figure7_spec(
        n_runs=n_runs, seed=seed,
        include_montage_stages=include_montage_stages,
        app_labels=None if apps is None else tuple(apps))
    overrides = None if apps is None else {
        APP_IDS[label]: app for label, app in apps.items()}
    plan = Study(spec, apps=overrides, fs_factory=fs_factory).plan()
    results = plan.execute(workers=workers, results_path=results_path,
                           resume=resume, progress=progress)
    return Figure7Result(results=results,
                         cells=plan.campaign_results(results),
                         fault_free_runs=results.fault_free_runs,
                         elapsed_seconds=results.elapsed_seconds)
