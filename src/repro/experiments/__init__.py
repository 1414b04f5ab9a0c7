"""The paper's tables and figures: the experiment index and its drivers.

:data:`EXPERIMENTS` maps each paper table/figure to what reproduces it.
The grid experiments (``figure7``, ``multifault``, ``table3``) are
registered studies (:mod:`repro.study.registry`), run by ``repro run
<id>`` exactly as ``repro study run <id>`` runs them.  The other seven
have a bespoke ``run_*`` driver that returns a result object with a
``render()`` method printing paper-comparable rows.  Campaign sizes
honour the ``REPRO_FI_RUNS`` environment variable (default: a
laptop-friendly fraction of the paper's 1,000 runs per cell).  Drivers
resolve lazily, so importing :mod:`repro.experiments` stays cheap until
a driver runs.
"""

from typing import Dict, Tuple

from repro.util.lazy import lazy_exports

#: Exported name -> (module, attribute), resolved on first access so
#: importing the package does not import the seven driver modules.
_EXPORTS: Dict[str, Tuple[str, str]] = {
    "default_runs": ("repro.experiments.params", "default_runs"),
    "montage_default": ("repro.experiments.params", "montage_default"),
    "nyx_default": ("repro.experiments.params", "nyx_default"),
    "nyx_small": ("repro.experiments.params", "nyx_small"),
    "qmcpack_default": ("repro.experiments.params", "qmcpack_default"),
    "run_table1": ("repro.experiments.table1", "run_table1"),
    "run_table2": ("repro.experiments.table2", "run_table2"),
    "run_table4": ("repro.experiments.table4", "run_table4"),
    "run_figure5": ("repro.experiments.figure5", "run_figure5"),
    "run_figure6": ("repro.experiments.figure6", "run_figure6"),
    "run_figure8": ("repro.experiments.figure8", "run_figure8"),
    "run_figure9": ("repro.experiments.figure9", "run_figure9"),
    "EXPERIMENTS": ("repro.experiments.registry", "EXPERIMENTS"),
    "get_experiment": ("repro.experiments.registry", "get_experiment"),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
