"""Tests for the scalar.dat format and the qmca reanalysis."""

import numpy as np
import pytest

from repro.apps.qmcpack.qmca import (
    AnalysisError,
    analyze_file,
    analyze_rows,
    blocking_error,
)
from repro.apps.qmcpack.scalars import (
    ScalarRow,
    parse_scalars,
    render_scalars,
    write_scalars,
)


def make_rows(n=40, energy=-2.903):
    return [ScalarRow(i, energy + 0.001 * np.sin(i), 0.08, 256.0)
            for i in range(n)]


class TestScalarsFormat:
    def test_roundtrip(self):
        rows = make_rows(10)
        parsed = parse_scalars(render_scalars(rows))
        assert len(parsed) == 10
        for a, b in zip(rows, parsed):
            assert a.index == b.index
            assert a.local_energy == pytest.approx(b.local_energy, abs=1e-8)

    def test_header_is_comment(self):
        text = render_scalars(make_rows(2))
        assert text.splitlines()[0].startswith("#")

    def test_malformed_rows_skipped(self):
        text = render_scalars(make_rows(5))
        corrupted = text.replace("\n    2", "\nGARBAGE LINE\n    2", 1)
        parsed = parse_scalars(corrupted)
        assert len(parsed) == 5

    def test_nul_bytes_skipped(self):
        """Dropped-write holes read as NUL runs; the parser must survive."""
        text = render_scalars(make_rows(10))
        hole = text[:120] + "\x00" * 60 + text[180:]
        parsed = parse_scalars(hole)
        assert 0 < len(parsed) <= 10

    def test_partial_number_skipped(self):
        parsed = parse_scalars("  1  -2.9  0.1\n")  # 3 columns, not 4
        assert parsed == []

    def test_write_through_mount(self, mp):
        write_scalars(mp, "/s.dat", make_rows(50), block_size=512)
        parsed = parse_scalars(mp.read_file("/s.dat").decode())
        assert len(parsed) == 50


class TestQmca:
    def test_mean_with_equilibration_cut(self):
        rows = [ScalarRow(i, -2.0 if i < 20 else -2.9, 0.1, 100.0)
                for i in range(60)]
        estimate = analyze_rows(rows, equilibration=20)
        assert estimate.mean == pytest.approx(-2.9)
        assert estimate.n_blocks == 40

    def test_weighted_average(self):
        rows = [ScalarRow(20, -3.0, 0.1, 300.0), ScalarRow(21, -2.0, 0.1, 100.0)]
        estimate = analyze_rows(rows, equilibration=0, min_rows=2)
        assert estimate.mean == pytest.approx(-2.75)

    def test_too_few_rows_is_analysis_error(self):
        with pytest.raises(AnalysisError):
            analyze_rows(make_rows(5), equilibration=0, min_rows=10)

    def test_nonfinite_energy_is_analysis_error(self):
        rows = make_rows(30)
        rows[25] = ScalarRow(25, float("nan"), 0.1, 100.0)
        with pytest.raises(AnalysisError):
            analyze_rows(rows, equilibration=0)

    def test_missing_file_is_analysis_error(self, mp):
        with pytest.raises(AnalysisError):
            analyze_file(mp, "/missing.dat")

    def test_analyze_file_end_to_end(self, mp):
        write_scalars(mp, "/s.dat", make_rows(60))
        estimate = analyze_file(mp, "/s.dat", equilibration=10)
        assert estimate.mean == pytest.approx(-2.903, abs=1e-2)
        assert estimate.error > 0

    def test_blocking_error_positive(self, rng):
        values = rng.normal(-2.9, 0.01, 64)
        assert blocking_error(values) > 0

    def test_blocking_error_short_series(self):
        assert blocking_error(np.array([-2.9, -2.91])) >= 0
