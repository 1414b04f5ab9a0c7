"""Plain-text table rendering for experiment reports."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.analysis.stats import TallySource, as_tally
from repro.core.outcomes import Outcome


def format_percent(value: float, digits: int = 1) -> str:
    return f"{100 * value:.{digits}f}%"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: Optional[str] = None) -> str:
    """Monospace table with column auto-sizing."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {columns}")
    widths = [max(len(str(headers[c])),
                  *(len(str(row[c])) for row in rows)) if rows else len(str(headers[c]))
              for c in range(columns)]

    def line(cells: Sequence[str]) -> str:
        return " | ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(cells))

    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(sep)
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def render_outcome_grid(results: Mapping[str, TallySource],
                        title: Optional[str] = None) -> str:
    """One row per campaign cell, columns per outcome (Fig. 7 layout).

    Accepts any tally source per cell: an ``OutcomeTally``, an object
    with a ``tally`` attribute (``CampaignResult``, a streaming sink),
    or an iterable of run records.
    """
    headers = ["cell", "runs"] + [o.value for o in Outcome]
    rows: List[List[str]] = []
    for label, result in results.items():
        tally = as_tally(result)
        rows.append([label, str(tally.total)]
                    + [format_percent(tally.rate(o)) for o in Outcome])
    return render_table(headers, rows, title=title)
