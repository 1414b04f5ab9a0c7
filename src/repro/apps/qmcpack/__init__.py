"""Mini-QMCPACK: He-atom VMC+DMC with restart-file fault propagation."""

from repro.apps.qmcpack.app import (
    CONFIG_FILE,
    HE_EXACT_ENERGY,
    LOG_FILE,
    S000_SCALARS,
    S001_SCALARS,
    SDC_WINDOW,
    QmcpackApplication,
)
from repro.apps.qmcpack.dmc import DmcParams, PopulationCollapse, run_dmc
from repro.apps.qmcpack.qmca import (
    AnalysisError,
    EnergyEstimate,
    analyze_file,
    analyze_rows,
    blocking_error,
)
from repro.apps.qmcpack.scalars import (
    ScalarRow,
    parse_scalars,
    render_scalars,
    write_scalars,
)
from repro.apps.qmcpack.vmc import VmcParams, run_vmc
from repro.apps.qmcpack.wavefunction import R_EPS, HeliumWavefunction

__all__ = [
    "HeliumWavefunction",
    "R_EPS",
    "VmcParams",
    "run_vmc",
    "DmcParams",
    "PopulationCollapse",
    "run_dmc",
    "ScalarRow",
    "parse_scalars",
    "render_scalars",
    "write_scalars",
    "AnalysisError",
    "EnergyEstimate",
    "analyze_file",
    "analyze_rows",
    "blocking_error",
    "CONFIG_FILE",
    "HE_EXACT_ENERGY",
    "LOG_FILE",
    "S000_SCALARS",
    "S001_SCALARS",
    "SDC_WINDOW",
    "QmcpackApplication",
]
