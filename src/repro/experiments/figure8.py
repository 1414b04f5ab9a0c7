"""Figure 8 -- halo-mass distribution, original vs DROPPED_WRITE data.

The paper compares the halo-finder mass histogram on original and
DW-faulty baryon density, noting larger-mass halos are more susceptible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.distributions import MassHistogram, mass_histogram
from repro.apps.nyx import NyxApplication
from repro.core.fault_models import DroppedWriteFault
from repro.core.injector import FaultInjector
from repro.core.signature import FaultSignature
from repro.experiments.params import nyx_default
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem
from repro.util.rngstream import RngStream


@dataclass
class Figure8Result:
    golden: MassHistogram
    faulty: MassHistogram
    golden_halos: int
    faulty_halos: int

    def render(self) -> str:
        centres, g = self.golden.series()
        _, f = self.faulty.series()
        lines = ["Figure 8: halo mass distribution, original vs DROPPED_WRITE",
                 "  mass-bin centre   original  faulty"]
        for c, a, b in zip(centres, g, f):
            marker = "  <-- differs" if a != b else ""
            lines.append(f"  {c:14.1f}   {a:8d}  {b:6d}{marker}")
        lines.append(f"  total halos: {self.golden_halos} -> {self.faulty_halos}")
        return "\n".join(lines) + "\n"


def run_figure8(app: Optional[NyxApplication] = None,
                seed: int = 8, n_bins: int = 8,
                max_tries: int = 64) -> Figure8Result:
    """Inject dropped data writes until one visibly reshapes the histogram.

    Every dropped write is an SDC (the average shifts); the figure wants
    the *mass-distribution* view, which moves when the dropped block
    overlaps halo cells -- the paper's "halos with larger mass ... are
    more susceptible".  The search mirrors how such a case would be
    picked from campaign records for visualization.  It stops at the
    first qualifying instance, so it stays serial.
    """
    if app is None:
        app = nyx_default()
    signature = FaultSignature(model=DroppedWriteFault())

    golden_catalog = app.find_halos(app.rho.astype(np.float64))
    masses = golden_catalog.masses
    mass_range = (float(masses.min()) * 0.8, float(masses.max()) * 1.2)
    golden_hist = mass_histogram(golden_catalog, n_bins=n_bins, mass_range=mass_range)

    rng = RngStream(seed, "figure8").generator()
    best: Optional[Figure8Result] = None
    for _ in range(max_tries):
        instance = int(rng.integers(0, 200))
        fs = FFISFileSystem()
        FaultInjector(signature).arm(fs, instance, RngStream(seed, instance).generator())
        with mount(fs) as mp:
            app.execute(mp)
            faulty_rho = app.read_density(mp)
        faulty_catalog = app.find_halos(faulty_rho)
        if len(faulty_catalog) == 0:
            continue
        faulty_hist = mass_histogram(faulty_catalog, n_bins=n_bins,
                                     mass_range=mass_range)
        result = Figure8Result(golden=golden_hist, faulty=faulty_hist,
                               golden_halos=len(golden_catalog),
                               faulty_halos=len(faulty_catalog))
        if not np.array_equal(faulty_hist.counts, golden_hist.counts):
            return result
        best = result
    if best is None:
        raise RuntimeError("no dropped write produced a usable catalog")
    return best
