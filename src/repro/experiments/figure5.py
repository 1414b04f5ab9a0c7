"""Figure 5 -- visualization of typical SDC cases.

The paper visualizes the decoded field for a faulty Exponent Bias (the
whole field scales by a power of two) and a faulty ARD (the whole field
shifts).  The reproduction produces the underlying numeric series: a 1-D
trace through the field for the original and each faulty decode, plus
the measured scale factor and shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.nyx import NyxApplication
from repro.experiments.flipped import decode_flipped
from repro.experiments.params import nyx_default


@dataclass
class Figure5Result:
    original_trace: np.ndarray
    bias_trace: np.ndarray
    ard_trace: np.ndarray
    scale_factor: float
    shift_cells: int

    def render(self) -> str:
        lines = [
            "Figure 5: typical SDC cases on the decoded baryon density",
            f"  (a) original          : trace mean {self.original_trace.mean():.4f}",
            f"  (b) faulty ExponentBias: field scaled x{self.scale_factor:.6g} "
            "(paper: mass of all halos scaled)",
            f"  (c) faulty ARD         : field shifted by {self.shift_cells} cells "
            "(paper: all halo locations shifted)",
        ]
        return "\n".join(lines) + "\n"


def run_figure5(app: Optional[NyxApplication] = None,
                bias_bit: int = 3, ard_bit: int = 5) -> Figure5Result:
    """Decode the field with a faulty Exponent Bias and a faulty ARD."""
    if app is None:
        app = nyx_default()
    faulty_bias, faulty_ard = decode_flipped(
        app, [("Exponent Bias", 0, bias_bit),
              ("Address of Raw Data", 0, ard_bit)])
    rho = app.rho.astype(np.float64)

    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = faulty_bias / rho
    scale = float(np.nanmedian(ratios))

    # Estimate the flat shift by correlating flattened arrays.
    flat = rho.ravel()
    flat_f = faulty_ard.ravel()
    best_shift, best_err = 0, np.inf
    for candidate in range(0, 64):
        err = float(np.abs(flat[candidate:candidate + 4096]
                           - flat_f[:4096]).sum())
        if err < best_err:
            best_err, best_shift = err, candidate

    mid = rho.shape[0] // 2
    return Figure5Result(
        original_trace=rho[mid, mid, :].copy(),
        bias_trace=faulty_bias[mid, mid, :].copy(),
        ard_trace=faulty_ard[mid, mid, :].copy(),
        scale_factor=scale,
        shift_cells=best_shift,
    )
