"""Bench for Table III: byte-exhaustive HDF5-metadata fault injection.

Paper reference: 2,432 cases -- SDC 4 (0.2 %), benign 2,085 (85.7 %),
crash 343 (14.1 %).  This bench sweeps every metadata byte (~2,500
application runs) and checks both the proportions and the identity of
the SDC-capable fields.
"""

from repro.core.outcomes import Outcome
from repro.study import Study, get_study
from repro.study.registry import field_examples

from conftest import run_once


def test_table3_metadata_classification(benchmark, save_report):
    table3 = get_study("table3")
    results = run_once(benchmark, lambda: Study(table3.build()).run())
    save_report("table3", table3.render(results))

    tally = results.tally()
    assert tally.total > 2000                       # paper: 2,432 cases

    # Proportions: benign dominates, crash is a sizeable minority, SDC is
    # a fraction of a percent.
    assert 0.80 < tally.rate(Outcome.BENIGN) < 0.97     # paper 85.7 %
    assert 0.02 < tally.rate(Outcome.CRASH) < 0.18      # paper 14.1 %
    assert 0.0 < tally.rate(Outcome.SDC) < 0.02         # paper 0.2 %

    # The SDC-capable fields are the paper's set (Table III/IV).
    examples = field_examples(results.records())
    sdc_fields = " | ".join(examples.get(Outcome.SDC, []))
    assert any(name in sdc_fields for name in
               ("Exponent Bias", "Mantissa", "Address of Raw Data"))

    # Benign cases are dominated by unused/reserved capacity, the paper's
    # explanation #1.
    benign_fields = " | ".join(examples.get(Outcome.BENIGN, [])[:3])
    assert "unused" in benign_fields or "reserved" in benign_fields.lower()
