"""Decoding the Nyx density with one metadata bit flipped (Figs. 5/6, Table IV)."""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.apps.nyx import NyxApplication
from repro.core.metadata_campaign import MetadataCampaign
from repro.fusefs.mount import mount


def decode_flipped(app: NyxApplication,
                   targets: Iterable[Tuple[str, int, int]]) -> List[np.ndarray]:
    """The density *app* reads back with each ``(field-substring,
    byte-in-field, bit)`` target flipped in its metadata write, one fresh
    file system per target.

    One golden capture locates the write, and its field map is read
    before any faulty run replaces ``app.last_write_result``.
    """
    campaign = MetadataCampaign(app)
    located = campaign.locate_metadata_write()
    campaign.fieldmap = app.last_write_result.fieldmap
    plan = campaign.plan_targets(targets, located=located)
    densities = []
    for spec in plan.specs:
        fs = plan.context.fs_factory()
        plan.context.arm(fs, spec)
        with mount(fs) as mp:
            app.execute(mp)
            densities.append(app.read_density(mp))
    return densities
