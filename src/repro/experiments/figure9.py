"""Figure 9 -- a typical faulty mosaic under DROPPED_WRITE.

The paper's image shows a black line through the mosaic where a dropped
write lost a stripe of data, with the "min" statistic leaving its
plausible range (a *detected* outcome).  The reproduction measures the
artifact: the zero-stripe size and the min excursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.montage import MontageApplication
from repro.core.campaign import Campaign
from repro.core.config import CampaignConfig
from repro.core.injector import FaultInjector
from repro.core.outcomes import Outcome
from repro.errors import FFISError
from repro.experiments.params import montage_default
from repro.fusefs.mount import mount
from repro.fusefs.vfs import FFISFileSystem
from repro.mfits.io import read_fits
from repro.util.rngstream import RngStream

MOSAIC_PATH = "/montage/out/m101_mosaic.fits"


@dataclass
class Figure9Result:
    golden_min: float
    faulty_min: float
    dark_pixels: int
    outcome: Outcome
    instance: int

    def render(self) -> str:
        return (
            "Figure 9: typical faulty mosaic under DROPPED_WRITE\n"
            f"  golden min = {self.golden_min:.4f} (paper: ~82.82)\n"
            f"  faulty min = {self.faulty_min:.4f} -> outcome {self.outcome.value}\n"
            f"  dark-stripe pixels: {self.dark_pixels} "
            "(the paper's 'black line in the middle of the vortex')\n"
        )


def run_figure9(app: Optional[MontageApplication] = None,
                seed: int = 9, max_tries: int = 64) -> Figure9Result:
    """Find a dropped mAdd write that produces the black-stripe artifact.

    One fault-free run serves as both the golden record and the write
    profile.  The search stops at the first qualifying instance, so it
    stays serial.
    """
    if app is None:
        app = montage_default()
    campaign = Campaign(app, CampaignConfig(fault_model="DW", n_runs=1,
                                            seed=seed, phase="mAdd"))
    golden = campaign.capture_golden()
    window = campaign.profile_from_golden(golden).window("mAdd")
    golden_min = golden.analysis["min"]
    injector = FaultInjector(campaign.signature)

    for i, instance in enumerate(window):
        if i >= max_tries:
            break
        fs = FFISFileSystem()
        injector.arm(fs, instance, RngStream(seed, i).generator())
        with mount(fs) as mp:
            try:
                app.execute(mp)
                outcome, _ = app.classify(golden, mp)
                mosaic = read_fits(mp, MOSAIC_PATH).data
                dark = int((mosaic == 0).sum())
                if outcome is Outcome.DETECTED and dark > 0:
                    stats = app.mosaic_statistics(mp)
                    return Figure9Result(golden_min=golden_min,
                                         faulty_min=stats.min,
                                         dark_pixels=dark, outcome=outcome,
                                         instance=instance)
            except Exception:  # noqa: BLE001 - skip crash cases, we want an image
                continue
    raise FFISError("no dropped mAdd write produced the black-stripe artifact "
                    f"within {max_tries} tries")
