"""Registered studies: the paper's grid experiments as data.

Each entry pairs a :class:`~repro.study.spec.StudySpec` builder (pure
data, environment-scaled when ``runs`` is left ``None``) with a render
function from the uniform :class:`~repro.study.resultset.ResultSet` to
the paper's table/grid text, plus the paper data those read.  ``repro
study run <id>`` executes them; ``repro run`` does too for ``figure7``,
``multifault`` and ``table3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.outcomes import Outcome, RunRecord
from repro.errors import ConfigError
from repro.study.resultset import ResultSet
from repro.study.spec import ModelSpec, ScenarioSpec, StudySpec, TargetSpec

#: Fig. 7's application axis: cell-label prefix -> app registry id.
FIGURE7_APPS: Tuple[Tuple[str, str], ...] = (
    ("NYX", "nyx"), ("QMC", "qmcpack"), ("MT", "montage"))

FAULT_MODELS = ("BF", "SW", "DW")
MONTAGE_STAGES = ("mProjExec", "mDiffExec", "mBgExec", "mAdd")

#: Paper Fig. 7 rates for the headline cells (approximate reads of the
#: stacked bars and the surrounding text), for side-by-side reporting.
PAPER_NOTES = {
    "NYX-BF": "91.1% benign, 0.8% SDC",
    "NYX-SW": "100% benign",
    "NYX-DW": "100% SDC",
    "QMC-BF": "~60% SDC, ~37% benign",
    "QMC-SW": "54% SDC, no detected",
    "QMC-DW": "8% SDC, 43% detected, 12% crash",
    "MT1-BF": "12.8% SDC", "MT2-BF": "8% SDC", "MT3-BF": "9% SDC", "MT4-BF": "6.8% SDC",
    "MT1-SW": "56.6% SDC", "MT2-SW": "40% SDC", "MT3-SW": "52.5% SDC", "MT4-SW": "48.5% SDC",
    "MT1-DW": "83.5% SDC", "MT2-DW": "37.3% SDC", "MT3-DW": "98.3% SDC", "MT4-DW": "50.4% SDC",
}

#: Faults per run swept by the multifault grid; k=1 is the paper's baseline.
K_VALUES = (1, 2, 4, 8)

#: Table III's paper rates: SDC 4 (0.2 %), benign 2085 (85.7 %), crash
#: 343 (14.1 %) of 2,432 per-byte cases.
PAPER_RATES = {Outcome.SDC: 0.002, Outcome.BENIGN: 0.857, Outcome.CRASH: 0.141}


def figure7_spec(n_runs: Optional[int] = None, seed: int = 1,
                 app_labels: Optional[Iterable[str]] = None) -> StudySpec:
    """The Fig. 7 characterization grid as a spec.

    Cell keys and enumeration order match the pre-study driver exactly
    (model-major: ``NYX-BF``, ``QMC-BF``, ``MT1-BF``..``MT4-BF``,
    then SW, then DW), which is what keeps its checkpoints
    byte-identical across the declarative rewrite.  ``app_labels``
    keeps a subset of the application axis (``NYX``, ``QMC``, ``MT``).
    """
    labels = {label for label, _ in FIGURE7_APPS}
    wanted = None if app_labels is None else set(app_labels)
    if wanted is not None and not wanted <= labels:
        raise ConfigError(
            f"unknown figure7 app labels {sorted(wanted - labels)}; "
            f"the grid's labels are {sorted(labels)}")
    targets = []
    for label, app_id in FIGURE7_APPS:
        if wanted is not None and label not in wanted:
            continue
        if label == "MT":
            targets.extend(
                TargetSpec(app=app_id, label=f"MT{i}", phase=stage)
                for i, stage in enumerate(MONTAGE_STAGES, start=1))
        else:
            targets.append(TargetSpec(app=app_id, label=label))
    return StudySpec(
        name="figure7",
        targets=tuple(targets),
        models=tuple(ModelSpec(model=fm) for fm in FAULT_MODELS),
        scenarios=(ScenarioSpec(),),
        order="model", runs=n_runs, seed=seed)


def multifault_spec(n_runs: Optional[int] = None, seed: int = 1,
                    fault_model: str = "BF",
                    k_values: Optional[Sequence[int]] = None,
                    apps: Optional[Sequence[Tuple[str, str]]] = None) -> StudySpec:
    """The multi-fault SDC-vs-k grid as a spec (keys ``NYX-k4`` etc.;
    k=1 is the legacy single-fault scenario, bit-identical to Fig. 7).

    ``apps`` overrides the application axis as ``(label, app-id)``
    pairs (default: the paper's three workloads).
    """
    ks = tuple(K_VALUES if k_values is None else k_values)
    pairs = tuple(FIGURE7_APPS if apps is None else apps)
    return StudySpec(
        name="multifault",
        targets=tuple(TargetSpec(app=app_id, label=label)
                      for label, app_id in pairs),
        models=(ModelSpec(model=fault_model, label=""),),
        scenarios=tuple(
            ScenarioSpec(scenario="single" if k == 1 else f"k={k}",
                         label=f"k{k}") for k in ks),
        order="target", runs=n_runs, seed=seed)


def table3_spec(byte_stride: int = 1, seed: int = 0) -> StudySpec:
    """Table III's byte-exhaustive Nyx metadata sweep as a spec."""
    return StudySpec(
        name="table3",
        targets=(TargetSpec(app="nyx-small", label="nyx", kind="metadata",
                            mode="random-bit", stride=byte_stride),),
        seed=seed)


def table4_spec(seed: int = 0) -> StudySpec:
    """Table IV's six targeted per-field corruptions as a spec."""
    from repro.experiments.table4 import TARGETS

    bits = tuple((substring, byte, bit)
                 for _, substring, byte, bit in TARGETS)
    return StudySpec(
        name="table4",
        targets=(TargetSpec(app="nyx", label="nyx", kind="metadata",
                            mode="targeted", bits=bits),),
        seed=seed)


# -- renderers ------------------------------------------------------------------


def _render_figure7(results: ResultSet) -> str:
    from repro.analysis.tables import render_outcome_grid, render_table

    grid = render_outcome_grid(results.tallies(),
                               title="Figure 7: I/O fault characterization")
    rows = [[key, PAPER_NOTES.get(key, "-")] for key in results.keys()]
    paper = render_table(["cell", "paper"], rows, title="Figure 7 (paper)")
    return grid + "\n" + paper


def _render_multifault(results: ResultSet) -> str:
    from repro.analysis.stats import sdc_vs_k
    from repro.analysis.tables import render_outcome_grid, render_table

    grid = render_outcome_grid(
        results.tallies(),
        title="Multi-fault scenarios: outcomes vs fault count")
    apps = list(dict.fromkeys(key.rsplit("-k", 1)[0]
                              for key in results.keys()))
    curves = {
        app_label: sdc_vs_k(results.filter(
            key=lambda k, app=app_label: k.rsplit("-k", 1)[0] == app
        ).records())
        for app_label in apps}
    k_values = sorted({k for curve in curves.values() for k in curve})
    rows = [[app_label] + [str(curve.get(k, "-")) for k in k_values]
            for app_label, curve in curves.items()]
    table = render_table(
        ["app"] + [f"SDC @ k={k}" for k in k_values], rows,
        title="SDC rate vs fault count")
    return grid + "\n" + table


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


def _render_table3(results: ResultSet) -> str:
    from repro.analysis.tables import render_table

    tally = results.tally()
    examples = field_examples(results.records())
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


def _render_table4(results: ResultSet) -> str:
    from repro.analysis.tables import render_table

    rows = [[record.field_name or "?", record.outcome.value, record.detail]
            for record in results.records()]
    return render_table(
        ["Metadata field", "outcome", "detail"], rows,
        title="Table IV: targeted per-field corruption outcomes "
              "(run the table4 experiment driver for symptom analysis)")


@dataclass(frozen=True)
class StudyDefinition:
    """A registered study: id, description, spec builder, renderer."""

    id: str
    description: str
    build: Callable[..., StudySpec]
    render: Callable[[ResultSet], str]


STUDIES: Dict[str, StudyDefinition] = {}


def register_study(definition: StudyDefinition) -> None:
    STUDIES[definition.id] = definition


def get_study(study_id: str) -> StudyDefinition:
    try:
        return STUDIES[study_id]
    except KeyError:
        raise KeyError(
            f"unknown study {study_id!r}; choose from {sorted(STUDIES)}"
        ) from None


for _definition in (
    StudyDefinition("figure7", "Characterization grid (apps x fault models)",
                    figure7_spec, _render_figure7),
    StudyDefinition("multifault", "Outcome rates vs fault count k",
                    multifault_spec, _render_multifault),
    StudyDefinition("table3", "Byte-exhaustive faulty-metadata classification",
                    table3_spec, _render_table3),
    StudyDefinition("table4", "Targeted corruption of the SDC-capable fields",
                    table4_spec, _render_table4),
):
    register_study(_definition)
