"""Table III -- output classification of faulty HDF5 metadata.

Byte-exhaustive corruption of the Nyx metadata write, classified by the
halo-finder post-analysis, with per-field annotation from the writer's
field map.  Paper reference: SDC 4 (0.2 %), benign 2085 (85.7 %), crash
343 (14.1 %).

The sweep is a registered declarative study
(:func:`repro.study.registry.table3_spec`): a single metadata-kind
target compiled through :class:`~repro.study.Study`, whose locate trace
doubles as both the golden capture and the field-map harvest -- exactly
one fault-free run, like any fused-sweep cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.analysis.tables import render_table
from repro.apps.nyx import NyxApplication
from repro.core.metadata_campaign import MetadataCampaignResult
from repro.core.outcomes import Outcome, OutcomeTally, RunRecord

PAPER_RATES = {Outcome.SDC: 0.002, Outcome.BENIGN: 0.857, Outcome.CRASH: 0.141}

#: The six SDC-capable fields the paper identifies.
PAPER_SDC_FIELDS = (
    "Mantissa Normalization", "Exponent Location", "Mantissa Location",
    "Mantissa Size", "Exponent Bias", "Address of Raw Data (ARD)",
)


def field_examples(records: Iterable[RunRecord]) -> Dict[Outcome, List[str]]:
    """Distinct short field names per outcome, in frequency order (the
    per-field container prefixes stripped for compact reporting)."""
    buckets: Dict[Outcome, Dict[str, int]] = {o: {} for o in Outcome}
    for record in records:
        name = (record.field_name or "?").split(".")[-1]
        counts = buckets[record.outcome]
        counts[name] = counts.get(name, 0) + 1
    return {o: [name for name, _ in
                sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
            for o, counts in buckets.items()}


def render_table3_records(records: List[RunRecord]) -> str:
    """Table III's layout from any record stream (the study renderer)."""
    tally = OutcomeTally.from_records(records)
    examples = field_examples(records)
    rows = []
    for outcome in (Outcome.SDC, Outcome.BENIGN, Outcome.CRASH,
                    Outcome.DETECTED):
        shown = ", ".join(examples.get(outcome, [])[:4]) or "-"
        paper = PAPER_RATES.get(outcome)
        paper_text = f"{100 * paper:.1f}%" if paper is not None else "n/a"
        rows.append([outcome.value,
                     f"{tally.counts[outcome]} "
                     f"({100 * tally.rate(outcome):.1f}%)",
                     paper_text, shown])
    return render_table(
        ["Fault type", "measured cases", "paper", "example metadata fields"],
        rows, title="Table III: output classification of faulty metadata")


@dataclass
class Table3Result:
    campaign: MetadataCampaignResult
    field_examples: Dict[Outcome, List[str]] = field(default_factory=dict)

    def rate(self, outcome: Outcome) -> float:
        return self.campaign.tally.rate(outcome)

    def render(self) -> str:
        return render_table3_records(self.campaign.records)


def run_table3(app: Optional[NyxApplication] = None, byte_stride: int = 1,
               seed: int = 0, workers: int = 1,
               results_path: Optional[str] = None,
               resume: bool = False) -> Table3Result:
    """Sweep every ``byte_stride``-th metadata byte (1 == the paper's
    exhaustive per-byte campaign, ~2.5k application runs).

    The sweep is embarrassingly parallel: ``workers`` fans it out over
    processes, and ``results_path``/``resume`` checkpoint it to JSONL
    (byte-identical to the pre-study driver's checkpoints).
    """
    from repro.study import Study
    from repro.study.registry import table3_spec

    spec = table3_spec(byte_stride=byte_stride, seed=seed)
    overrides = None if app is None else {"nyx-small": app}
    plan = Study(spec, apps=overrides).plan()
    results = plan.execute(workers=workers, results_path=results_path,
                           resume=resume)
    (cell,) = plan.cells
    campaign = cell.planner
    result = MetadataCampaignResult(
        app_name=campaign.app.name, mode=campaign.mode,
        records=results.cell(cell.key),
        metadata=cell.metadata, fieldmap=campaign.fieldmap,
        elapsed_seconds=results.elapsed_seconds)
    return Table3Result(campaign=result,
                        field_examples=field_examples(result.records))
