"""Mini-Nyx: cosmological density snapshot + halo-finder post-analysis."""

from repro.apps.nyx.app import DATASET, PLOTFILE, NyxApplication
from repro.apps.nyx.field import FieldConfig, generate_baryon_density
from repro.apps.nyx.halo_finder import (
    Halo,
    HaloCatalog,
    average_value_check,
    candidate_count,
    find_halos,
)
from repro.apps.nyx.labeling import DisjointSet

__all__ = [
    "FieldConfig",
    "generate_baryon_density",
    "DisjointSet",
    "Halo",
    "HaloCatalog",
    "average_value_check",
    "candidate_count",
    "find_halos",
    "DATASET",
    "PLOTFILE",
    "NyxApplication",
]
