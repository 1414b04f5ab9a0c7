"""Multi-fault characterization: outcome rates vs fault count k.

The paper's grid (Fig. 7) holds the fault count fixed at one per run;
this driver sweeps it.  For each application (Nyx, QMCPACK, Montage) and
each k in ``K_VALUES``, a campaign injects k faults per run -- k=1 via
the legacy single-fault scenario (bit-identical to the Fig. 7 cells),
k>1 via :class:`~repro.core.scenario.KFaults` -- and the per-app
SDC-vs-k curve is tabulated from the same interval estimates the paper
quotes.

The grid is a registered declarative study
(:func:`repro.study.registry.multifault_spec`) compiled through
:class:`~repro.study.Study`: every application's fault-free profile and
golden capture run exactly once across all k cells, all cells' specs
interleave through one worker pool, and the grid checkpoints to one
multiplexed JSONL file with sweep-level kill/resume (``repro run
multifault --workers N --out sweep.jsonl --resume``).  The driver plans
through ``Study(spec).plan()`` and renders with the registered study's
renderer, which lists the k columns in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.apps.base import HpcApplication
from repro.core.campaign import CampaignResult
from repro.experiments.figure7 import APP_IDS
from repro.fusefs.vfs import FFISFileSystem
from repro.study.registry import get_study
from repro.study.resultset import ResultSet

#: Faults per run swept by the grid; k=1 is the paper's baseline.
K_VALUES = (1, 2, 4, 8)


@dataclass
class MultifaultResult:
    """Per-cell results; :meth:`render` adds the per-application
    SDC-vs-k curves."""

    #: The study execution's records, one cell per ``<app>-k<k>`` label.
    results: ResultSet
    cells: Dict[str, CampaignResult] = field(default_factory=dict)
    fault_free_runs: int = 0
    elapsed_seconds: float = 0.0

    def cell(self, label: str) -> CampaignResult:
        return self.cells[label]

    def render(self) -> str:
        return get_study("multifault").render(self.results)


def run_multifault(n_runs: Optional[int] = None, seed: int = 1,
                   fault_model: str = "BF",
                   k_values: Tuple[int, ...] = K_VALUES,
                   apps: Optional[Dict[str, HpcApplication]] = None,
                   workers: int = 1,
                   results_path: Optional[str] = None,
                   resume: bool = False,
                   fs_factory: Callable[[], FFISFileSystem] = FFISFileSystem,
                   progress: Optional[Callable[[int, int], None]] = None,
                   ) -> MultifaultResult:
    """Run the apps x k grid fused through one study execution.

    ``results_path`` checkpoints the whole grid to one multiplexed JSONL
    file; ``resume=True`` re-executes only the missing (cell, run index)
    pairs of a killed sweep.
    """
    from repro.study import Study
    from repro.study.registry import multifault_spec

    # Custom apps keep their dict labels as target labels; app ids fall
    # back to the label itself for apps outside the stock registry.
    pairs = None if apps is None else tuple(
        (label, APP_IDS.get(label, label)) for label in apps)
    spec = multifault_spec(n_runs=n_runs, seed=seed, fault_model=fault_model,
                           k_values=tuple(k_values), apps=pairs)
    overrides = None if apps is None else {
        APP_IDS.get(label, label): app for label, app in apps.items()}
    plan = Study(spec, apps=overrides, fs_factory=fs_factory).plan()
    results = plan.execute(workers=workers, results_path=results_path,
                           resume=resume, progress=progress)
    return MultifaultResult(results=results,
                            cells=plan.campaign_results(results),
                            fault_free_runs=results.fault_free_runs,
                            elapsed_seconds=results.elapsed_seconds)
