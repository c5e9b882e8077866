"""Experiment metrics: unit stats, run series, gain rows, tables."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.metrics import (
    ExperimentSeries,
    RunResult,
    UnitStats,
    gain_table_row,
    run_metrics_dict,
    run_result_to_dict,
    series_table,
)


def run_with(satisfied, issued):
    r = RunResult()
    for s, i in zip(satisfied, issued):
        r.units.append(UnitStats(issued=i, satisfied=s))
    return r


class TestUnitStats:
    def test_satisfied_pct(self):
        u = UnitStats(issued=50, satisfied=25)
        assert u.satisfied_pct == 50.0

    def test_zero_issued_is_zero_pct(self):
        assert UnitStats().satisfied_pct == 0.0

    def test_mean_hops_over_satisfied(self):
        u = UnitStats(issued=10, satisfied=5, logical_hops=20, physical_hops=10)
        assert u.mean_logical_hops == 4.0
        assert u.mean_physical_hops == 2.0

    def test_mean_hops_with_no_satisfied(self):
        assert UnitStats(issued=3).mean_logical_hops == 0.0


class TestSerialisedFieldLists:
    """Both documents derive from the dataclass: a new ``UnitStats`` field
    reaches them without a second and third list to extend."""

    RUN = RunResult(units=[UnitStats(issued=4, satisfied=3, hop_histogram={2: 3})])
    FIELDS = {f.name for f in dataclasses.fields(UnitStats)}

    def test_store_document_has_every_field(self):
        unit = run_result_to_dict(self.RUN)["units"][0]
        assert set(unit) == self.FIELDS
        assert unit["hop_histogram"] == {"2": 3}

    def test_metrics_document_is_the_scalars_plus_derived_percentiles(self):
        unit = run_metrics_dict(self.RUN)["units"][0]
        histograms = {"hop_histogram", "ttr_histogram", "query_hop_histogram"}
        assert set(unit) == (self.FIELDS - histograms) | {"p95_hops", "p99_hops", "p95_ttr"}
        assert unit["p95_hops"] == 2.0


class TestRunResult:
    def test_series_extraction(self):
        r = run_with([1, 2], [10, 10])
        assert r.satisfied_pct == [10.0, 20.0]
        assert r.total_satisfied == 3 and r.total_issued == 20
        assert len(r) == 2


class TestExperimentSeries:
    def test_mean_curve(self):
        s = ExperimentSeries("x", [run_with([0, 10], [10, 10]),
                                   run_with([10, 10], [10, 10])])
        assert list(s.mean_curve("satisfied_pct")) == [50.0, 100.0]
        assert s.n_runs == 2

    def test_steady_state_discards_warmup(self):
        runs = [run_with([0] * 10 + [10] * 10, [10] * 20)]
        s = ExperimentSeries("x", runs)
        assert s.steady_state_satisfaction(warmup=10) == 100.0


class TestGainRow:
    def make_series(self, total):
        return ExperimentSeries("x", [run_with([total], [total * 2])])

    def test_gains_relative_to_nolb(self):
        row = gain_table_row(
            mlt=self.make_series(30), kc=self.make_series(15), nolb=self.make_series(10)
        )
        assert row["MLT"] == pytest.approx(200.0)
        assert row["KC"] == pytest.approx(50.0)

    def test_zero_baseline_rejected(self):
        zero = ExperimentSeries("x", [run_with([0], [10])])
        with pytest.raises(ValueError):
            gain_table_row(self.make_series(1), self.make_series(1), zero)


class TestSeriesTable:
    def test_renders_columns(self):
        text = series_table([0, 1], {"MLT": [1.5, 2.5], "KC": [0.5, 1.0]})
        lines = text.splitlines()
        assert "MLT" in lines[0] and "KC" in lines[0]
        assert "1.50" in text and "0.50" in text
        assert len(lines) == 4  # header + rule + 2 rows
