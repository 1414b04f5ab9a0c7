"""Registry mapping experiment ids to what reproduces them (README's index).

An experiment is either a registered study (``study``: the grid
experiments, executed by :class:`~repro.study.Study` like ``repro study
run <id>``) or a bespoke driver named by import path.  Entries are
*lazy*: nothing here imports a driver module or the study registry, so
listing the experiments (``repro experiments``, CLI ``choices``,
``repro --version``) stays cheap.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class Experiment:
    id: str
    description: str
    bench: str
    #: The bespoke driver's import path (``module``, ``attr``).
    module: str = ""
    attr: str = ""
    #: The registered study id (:mod:`repro.study.registry`) this
    #: experiment runs, in place of a driver.
    study: str = ""

    def resolve(self) -> Callable:
        """Import and return the driver callable."""
        return getattr(importlib.import_module(self.module), self.attr)


EXPERIMENTS: Dict[str, Experiment] = {
    exp.id: exp for exp in (
        Experiment("table1", "Fault models supported by FFIS (conformance)",
                   "benchmarks/test_table1_fault_models.py",
                   "repro.experiments.table1", "run_table1"),
        Experiment("table2", "Description of tested HPC applications",
                   "benchmarks/test_table2_applications.py",
                   "repro.experiments.table2", "run_table2"),
        Experiment("table3", "Output classification of faulty HDF5 metadata",
                   "benchmarks/test_table3_metadata.py", study="table3"),
        Experiment("table4", "Per-field SDC symptoms for faulty metadata",
                   "benchmarks/test_table4_field_symptoms.py",
                   "repro.experiments.table4", "run_table4"),
        Experiment("figure5", "Exponent-Bias scaling / ARD shift visualization",
                   "benchmarks/test_figure5_sdc_visualization.py",
                   "repro.experiments.figure5", "run_figure5"),
        Experiment("figure6", "Halo candidates under faulty Mantissa Size",
                   "benchmarks/test_figure6_halo_candidates.py",
                   "repro.experiments.figure6", "run_figure6"),
        Experiment("figure7", "Characterization grid (apps x fault models)",
                   "benchmarks/test_figure7_characterization.py",
                   study="figure7"),
        Experiment("figure8", "Halo-mass distribution original vs DW",
                   "benchmarks/test_figure8_mass_distribution.py",
                   "repro.experiments.figure8", "run_figure8"),
        Experiment("figure9", "Faulty Montage mosaic (black-stripe artifact)",
                   "benchmarks/test_figure9_montage_fault.py",
                   "repro.experiments.figure9", "run_figure9"),
        Experiment("multifault", "Outcome rates vs fault count k (scenarios)",
                   "tests/test_multifault.py", study="multifault"),
    )
}


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
