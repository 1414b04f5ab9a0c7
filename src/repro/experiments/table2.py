"""Table II -- description of the tested HPC applications.

The paper reports domain, package size, LoC and method for Nyx, QMCPACK,
Montage.  The reproduction reports the same columns for the mini
implementations, with package size *measured* (bytes the workload writes
through FFIS in a fault-free run) and LoC counted from the shipped
modules -- honest numbers for the scale actually under test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List

import repro.apps.montage as montage_pkg
import repro.apps.nyx as nyx_pkg
import repro.apps.qmcpack as qmcpack_pkg
from repro.analysis.tables import render_table
from repro.core.fault_models import BitFlipFault
from repro.core.profiler import IOProfiler
from repro.core.signature import FaultSignature
from repro.experiments.params import montage_default, nyx_default, qmcpack_default

PAPER_ROWS = [
    ("Nyx", "Astrophysics", "71.9MB", "21K",
     "Adaptive mesh refinement (AMR) based cosmological simulation"),
    ("QMCPACK", "Quantum Chemistry", "381MB", "403K",
     "Quantum Monte Carlo simulation for electronic structures of molecules"),
    ("Montage", "Astronomy", "126MB", "31K",
     "Astronomical image mosaic"),
]


@dataclass
class Table2Row:
    benchmark: str
    domain: str
    written_bytes: int
    loc: int
    writes: int
    method: str


@dataclass
class Table2Result:
    rows: List[Table2Row] = field(default_factory=list)

    def render(self) -> str:
        measured = render_table(
            ["Benchmark", "Domain", "I/O written", "LoC (mini)", "writes", "Method"],
            [[r.benchmark, r.domain, f"{r.written_bytes / 1024:.0f}KB",
              str(r.loc), str(r.writes), r.method] for r in self.rows],
            title="Table II (measured, mini-scale)")
        paper = render_table(
            ["Benchmark", "Domain", "Package Size", "LoC", "Method"],
            [list(map(str, row)) for row in PAPER_ROWS],
            title="Table II (paper, production-scale)")
        return measured + "\n" + paper


def _package_loc(package) -> int:
    total = 0
    pkg_dir = os.path.dirname(package.__file__)
    for name in os.listdir(pkg_dir):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "r", encoding="utf-8") as f:
                total += sum(1 for line in f if line.strip())
    return total


def run_table2() -> Table2Result:
    """Profile each application's writes once and count its lines."""
    result = Table2Result()
    signature = FaultSignature(model=BitFlipFault())
    specs = [
        (nyx_default(), nyx_pkg, "Astrophysics",
         "AMR-style cosmological density snapshot + grid halo finder "
         "(threshold candidates, 6-connected clusters)"),
        (qmcpack_default(), qmcpack_pkg, "Quantum Chemistry",
         "VMC+DMC quantum Monte Carlo for the He atom"),
        (montage_default(), montage_pkg, "Astronomy",
         "Astronomical image mosaic (project/diff/background/add)"),
    ]
    for app, package, domain, method in specs:
        profile = IOProfiler().profile(app, signature)
        result.rows.append(Table2Row(
            benchmark=app.name, domain=domain,
            written_bytes=profile.bytes_written,
            loc=_package_loc(package),
            writes=profile.total_count,
            method=method))
    return result
