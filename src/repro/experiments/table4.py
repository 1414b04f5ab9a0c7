"""Table IV -- per-field SDC symptoms for faulty HDF5 metadata.

For each of the six SDC-capable fields the paper identifies, corrupt the
specific bit the paper discusses, run the halo-finder post-analysis, and
characterize the symptom: how halo masses, locations, counts, and the
dataset average respond.  All symptoms *emerge* from the generic float
decoder honouring the corrupted geometry.

:data:`TARGETS` is the single source of truth for the corruption sites:
the registered ``table4`` study (:func:`repro.study.registry.table4_spec`)
derives its targeted-bits spec from it, so ``repro study run table4``
executes the same six corruptions through the campaign engine
(outcome-level); this driver keeps the deeper catalog-vs-catalog symptom
analysis, which needs the faulty halo catalogs and not just the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.tables import render_table
from repro.apps.nyx import NyxApplication
from repro.apps.nyx.halo_finder import HaloCatalog
from repro.experiments.flipped import decode_flipped
from repro.experiments.params import nyx_default

#: (row label, field-map name substring, byte index within field, bit index)
TARGETS = (
    ("Mantissa Normalization (bit-5)", "Byte Order / Mantissa Normalization", 0, 5),
    ("Exponent Location", "Exponent Location", 0, 1),
    ("Mantissa Location", "Mantissa Location", 0, 0),
    ("Mantissa Size", "Mantissa Size", 0, 0),
    ("Exponent Bias", "Exponent Bias", 0, 3),
    ("Address of Raw Data (ARD)", "Address of Raw Data (ARD)", 0, 5),
)

PAPER_SYMPTOMS = {
    "Mantissa Normalization (bit-5)": "mass changed; 45% locations changed; +24% halos; avg 0.55",
    "Exponent Location": "mass changed; all locations changed; +20% halos; avg 1.04",
    "Mantissa Location": "mass changed; most locations changed; count changed; avg 1.04-1.55",
    "Mantissa Size": "mass changed; most locations changed; count changed; avg 1.04-1.55",
    "Exponent Bias": "mass scaled; locations unchanged; count unchanged; avg power of two",
    "Address of Raw Data (ARD)": "mass unchanged; locations shifted; count unchanged; avg unchanged",
}


@dataclass
class Table4Row:
    field_label: str
    mass_symptom: str
    location_symptom: str
    halo_number: str
    average_value: str

    def cells(self) -> List[str]:
        return [self.field_label, self.mass_symptom, self.location_symptom,
                self.halo_number, self.average_value]


@dataclass
class Table4Result:
    rows: List[Table4Row] = field(default_factory=list)
    golden: Optional[HaloCatalog] = None

    def row(self, label_substring: str) -> Table4Row:
        for row in self.rows:
            if label_substring in row.field_label:
                return row
        raise KeyError(label_substring)

    def render(self) -> str:
        table = render_table(
            ["Metadata field", "Halo Mass", "Halo Location", "Halo Number",
             "Average Value"],
            [r.cells() for r in self.rows],
            title="Table IV: post-analysis symptoms per faulty metadata field")
        paper = render_table(
            ["Metadata field", "paper symptom"],
            [[k, v] for k, v in PAPER_SYMPTOMS.items()],
            title="Table IV (paper)")
        return table + "\n" + paper


def _match_positions(golden: np.ndarray, faulty: np.ndarray,
                     tol: float = 5e-3) -> Tuple[int, Optional[np.ndarray]]:
    """(how many golden positions reappear, common shift if consistent)."""
    if len(golden) == 0 or len(faulty) == 0:
        return 0, None
    unchanged = 0
    for g in golden:
        if np.any(np.all(np.abs(faulty - g) <= tol, axis=1)):
            unchanged += 1
    if len(golden) == len(faulty):
        shifts = faulty - golden
        if np.allclose(shifts, shifts[0], atol=tol) and not np.allclose(shifts[0], 0, atol=tol):
            return unchanged, shifts[0]
    return unchanged, None


def symptoms(label: str, golden: HaloCatalog, faulty: HaloCatalog) -> Table4Row:
    """Characterize faulty vs golden post-analysis (Table IV's four metrics)."""
    g_masses, f_masses = golden.masses, faulty.masses
    if len(f_masses) == len(g_masses) and len(g_masses) > 0:
        if np.allclose(f_masses, g_masses, rtol=1e-6):
            mass = "unchanged"
        else:
            ratios = f_masses / g_masses
            if np.allclose(ratios, ratios[0], rtol=1e-3):
                mass = f"scaled x{ratios[0]:.4g}"
            else:
                mass = "changed"
    elif len(f_masses) == 0:
        mass = "no halos"
    else:
        mass = "changed"

    unchanged, shift = _match_positions(golden.positions, faulty.positions)
    if len(faulty.positions) == 0:
        location = "no halos"
    elif shift is not None:
        location = (f"all shifted by ({shift[0]:.2f}, {shift[1]:.2f}, "
                    f"{shift[2]:.2f})")
    elif unchanged == len(golden.positions) and len(faulty.positions) == len(golden.positions):
        location = "unchanged"
    else:
        changed = len(golden.positions) - unchanged
        location = f"{changed}/{len(golden.positions)} changed"

    number = (f"{len(golden)} -> {len(faulty)}"
              if len(faulty) != len(golden) else "unchanged")

    avg_g, avg_f = golden.average_value, faulty.average_value
    if not math.isfinite(avg_f):
        average = "non-finite"
    elif abs(avg_f / avg_g - 1.0) < 1e-3:
        average = "unchanged"
    else:
        log2r = math.log2(avg_f / avg_g) if avg_f > 0 else float("nan")
        if math.isfinite(log2r) and abs(log2r - round(log2r)) < 0.02:
            average = f"scaled by 2^{round(log2r)}"
        else:
            average = f"changed to {avg_f:.3g}"
    return Table4Row(field_label=label, mass_symptom=mass,
                     location_symptom=location, halo_number=number,
                     average_value=average)


def run_table4(app: Optional[NyxApplication] = None) -> Table4Result:
    """Corrupt each :data:`TARGETS` bit and characterize its symptom."""
    if app is None:
        app = nyx_default()
    densities = decode_flipped(
        app, [(substring, byte, bit) for _, substring, byte, bit in TARGETS])
    golden_catalog = app.find_halos(app.rho.astype(np.float64))
    result = Table4Result(golden=golden_catalog)
    for (label, *_), rho in zip(TARGETS, densities):
        result.rows.append(symptoms(label, golden_catalog,
                                    app.find_halos(rho)))
    return result
