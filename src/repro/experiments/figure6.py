"""Figure 6 -- halo-cell candidates under a faulty Mantissa Size.

The paper shows a halo whose candidate cells fall below the formation
threshold when the Mantissa Size field is corrupted.  The reproduction
measures the candidate count and surviving halo count, golden vs faulty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.nyx import NyxApplication, candidate_count
from repro.experiments.flipped import decode_flipped
from repro.experiments.params import nyx_default


@dataclass
class Figure6Result:
    golden_candidates: int
    faulty_candidates: int
    golden_halos: int
    faulty_halos: int

    def render(self) -> str:
        return (
            "Figure 6: halo-cell candidates with a faulty Mantissa Size\n"
            f"  golden: {self.golden_candidates} candidate cells, "
            f"{self.golden_halos} halos\n"
            f"  faulty: {self.faulty_candidates} candidate cells, "
            f"{self.faulty_halos} halos\n"
            "  (paper: candidate count reduced; halos fail to form)\n"
        )


def run_figure6(app: Optional[NyxApplication] = None,
                bit: int = 1) -> Figure6Result:
    """Count halo candidates with a faulty Mantissa Size."""
    if app is None:
        app = nyx_default()
    (faulty_rho,) = decode_flipped(app, [("Mantissa Size", 0, bit)])
    rho = app.rho.astype(np.float64)
    return Figure6Result(
        golden_candidates=candidate_count(rho, app.threshold_factor),
        faulty_candidates=candidate_count(faulty_rho, app.threshold_factor),
        golden_halos=len(app.find_halos(rho)),
        faulty_halos=len(app.find_halos(faulty_rho)),
    )
