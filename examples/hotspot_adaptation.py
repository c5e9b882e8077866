#!/usr/bin/env python
"""Hot-spot adaptation (a compact Figure 8).

Simulates the paper's hot-spot timeline — uniform traffic, then a burst on
the S3L library, then a burst on ScaLAPACK ("P…") — under the three
balancers, and plots the per-unit percentage of satisfied requests as an
ASCII chart.  Watch the MLT curve collapse at each onset and climb back as
peers slide into the hot band; No-LB stays depressed.

Run:  python examples/hotspot_adaptation.py          (≈ 1 minute)
      REPRO_RUNS=5 python examples/hotspot_adaptation.py   (smoother curves)
"""

from __future__ import annotations

import os

from repro.experiments.ascii_plot import ascii_plot
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import compare_balancers
from repro.lb.kchoices import KChoices
from repro.lb.mlt import MLT
from repro.lb.nolb import NoLB
from repro.peers.churn import DYNAMIC
from repro.workloads.dynamics import figure8_schedule


def main() -> None:
    n_runs = int(os.environ.get("REPRO_RUNS", "2"))
    config = ExperimentConfig(
        n_peers=60,
        churn=DYNAMIC,
        load_fraction=0.5,
        total_units=160,
        workload=figure8_schedule(intensity=0.8),
    )
    print(f"running 3 balancers x {n_runs} runs x 160 units "
          f"({config.n_peers} peers, load {config.load_fraction:.0%}) ...")
    results = compare_balancers(config, [MLT(), KChoices(k=4), NoLB()], n_runs)

    series = {
        name: list(res.mean_curve("satisfied_pct"))
        for name, res in results.items()
    }
    print()
    print(ascii_plot(
        series,
        width=80,
        height=22,
        y_min=0,
        y_max=100,
        x_label="time unit",
        y_label="% satisfied",
        title="Dynamic network with hot spots (S3L burst @40-80, 'P' burst @80-120)",
    ))

    print("\nphase means (% satisfied):")
    phases = [("uniform 20-40", 20, 40), ("S3L burst 40-80", 40, 80),
              ("'P' burst 80-120", 80, 120), ("uniform 140-160", 140, 160)]
    header = f"{'phase':<20}" + "".join(f"{n:>10}" for n in series)
    print(header)
    for label, a, b in phases:
        row = f"{label:<20}"
        for name in series:
            vals = series[name][a:b]
            row += f"{sum(vals) / len(vals):>10.1f}"
        print(row)


if __name__ == "__main__":
    main()
