"""Figure/table harness smoke tests at miniature scale.

Full paper-scale regeneration lives in benchmarks/; these tests check that
every harness runs end-to-end and that the headline *orderings* hold on a
small-but-meaningful configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ARTIFACTS
from repro.experiments.figures import FAULT_R_VALUES, FAULT_REPAIR_RATES
from repro.experiments.tables import paper_table2_text, table2
from repro.workloads.keys import grid_service_corpus

SMALL = dict(n_peers=40, corpus=grid_service_corpus()[:300])


@pytest.fixture(scope="module")
def fig4_small():
    return ARTIFACTS["fig4"].run(n_runs=2, **SMALL)


class TestFigureHarnesses:
    def test_figure4_shape(self, fig4_small):
        fig = fig4_small
        assert set(fig.series) == {"MLT enabled", "KC enabled", "No LB"}
        assert len(fig.x) == 50
        assert all(len(v) == 50 for v in fig.series.values())

    def test_figure4_ordering(self, fig4_small):
        """Steady-state: MLT >= KC >= NoLB (the Figure 4 stacking)."""
        fig = fig4_small
        mlt = float(np.mean(fig.series["MLT enabled"][15:]))
        kc = float(np.mean(fig.series["KC enabled"][15:]))
        nolb = float(np.mean(fig.series["No LB"][15:]))
        assert mlt >= kc - 2.0  # small-sample tolerance
        assert mlt >= nolb

    def test_figure_as_table_renders(self, fig4_small):
        text = fig4_small.as_text()
        assert "MLT enabled" in text and len(text.splitlines()) == 52

    def test_figure8_hot_spot_dip(self):
        fig = ARTIFACTS["fig8"].run(n_runs=1, **SMALL)
        mlt = fig.series["MLT enabled"]
        pre = float(np.mean(mlt[25:40]))
        onset = float(np.mean(mlt[40:48]))
        assert onset < pre  # satisfaction falls when the S3L burst starts

    def test_figure9_locality_gain(self):
        fig = ARTIFACTS["fig9"].run(n_runs=1, total_units=60, **SMALL)
        logical = float(np.mean(fig.series["Logical hops"][20:]))
        rnd = float(np.mean(fig.series["Physical hops - random mapping"][20:]))
        lex = float(
            np.mean(fig.series["Physical hops - lexico. mapping with LB (MLT)"][20:])
        )
        # Random mapping pays ~1 physical hop per logical hop; the
        # lexicographic mapping pays substantially fewer (Figure 9).
        assert rnd > lex
        assert rnd == pytest.approx(logical, rel=0.35)


class TestFaultFigures:
    def test_fault_availability_shape_and_ordering(self):
        fig = ARTIFACTS["fault_availability"].run(n_runs=1, **SMALL)
        assert fig.x == list(FAULT_R_VALUES)
        assert fig.x_name == "r"
        for curve in fig.series.values():
            assert len(curve) == len(FAULT_R_VALUES)
            assert np.all((0.0 <= curve) & (curve <= 100.0))
            # Replication buys availability: r>=1 beats running bare.
            assert curve[1:].min() >= curve[0]
        text = ARTIFACTS["fault_availability"].render(fig)
        assert "% keys available" in text

    def test_fault_repair_shape(self):
        fig = ARTIFACTS["fault_repair"].run(n_runs=1, **SMALL)
        assert fig.x == [round(100 * r) for r in FAULT_REPAIR_RATES]
        for curve in fig.series.values():
            assert len(curve) == len(FAULT_REPAIR_RATES)
            assert np.all(curve > 0)  # every storm forces repair work
        # Repair-cost axes autoscale (not a percentage figure).
        assert "repair ops/crash" in ARTIFACTS["fault_repair"].render(fig)


class TestTableHarnesses:
    def test_table1_structure_and_monotonicity(self):
        res = ARTIFACTS["table1"].run(n_runs=1, loads=(0.10, 0.80), **SMALL)
        text = res.as_text()
        assert "Load" in text
        s = res.gains["stable"]
        # Gains grow with load (the Table 1 trend).
        assert s[0.80]["MLT"] >= s[0.10]["MLT"]

    def test_table2_rows_and_scaling(self):
        res = table2(scales=((120, 16), (240, 32)), key_bits=12)
        assert {r.system for r in res.rows} == {"DLPT", "PHT", "P-Grid"}
        dlpt = res.rows_for("DLPT")
        pht = res.rows_for("PHT")
        # PHT pays the DHT factor: strictly more hops than DLPT at equal N.
        for d, p in zip(dlpt, pht):
            assert p.mean_routing_hops > d.mean_routing_hops
        text = res.as_text()
        assert "O(D)" in text and "O(D·log P)" in text

    def test_paper_table2_text(self):
        assert "P-Grid" in paper_table2_text()
