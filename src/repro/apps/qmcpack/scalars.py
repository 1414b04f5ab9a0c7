"""The ``.scalar.dat`` text format QMCPACK emits per Monte Carlo series.

One whitespace-separated row per block with a ``#`` header line, e.g.::

    #   index     LocalEnergy     Variance        Weight
        0         -2.887123       0.421003        256.000000

Writers chunk the rendered text into block-sized ``ffis_write``s so the
fault models see the same per-write surface real buffered stdio gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.fusefs.mount import MountPoint

COLUMNS = ("index", "LocalEnergy", "Variance", "Weight")


@dataclass
class ScalarRow:
    index: int
    local_energy: float
    variance: float
    weight: float


def render_scalars(rows: List[ScalarRow]) -> str:
    lines = ["#   index     LocalEnergy     Variance        Weight"]
    for row in rows:
        lines.append(
            f"    {row.index:<6d}    {row.local_energy:< 14.8f}  "
            f"{row.variance:< 14.8f}  {row.weight:< 14.6f}")
    return "\n".join(lines) + "\n"


def write_scalars(mp: MountPoint, path: str, rows: List[ScalarRow],
                  block_size: int = 4096) -> None:
    data = render_scalars(rows).encode("ascii")
    mp.write_file(path, data, block_size=block_size)


def parse_scalars(text: str) -> List[ScalarRow]:
    """Tolerant parser: malformed rows are skipped, like qmca's behaviour
    on partially corrupted files.  Callers decide how many valid rows are
    enough (see :mod:`repro.apps.qmcpack.qmca`)."""
    rows: List[ScalarRow] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 4:
            continue
        try:
            index = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError:
            continue
        rows.append(ScalarRow(index, values[0], values[1], values[2]))
    return rows
