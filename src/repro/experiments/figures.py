"""Figure harnesses — one function per figure of the paper's Section 4.

Each harness builds the three-balancer comparison (MLT / KC / No LB) on a
common-random-numbers configuration and returns a :class:`FigureResult`
whose series are the per-unit mean curves the paper plots.

``n_runs`` defaults follow the paper (30 for Figures 4–7, 50 for Figure 8,
100 for Figure 9); the ``smoke`` / ``quick`` profiles of ``python -m repro
paper`` pass smaller values to stay laptop-quick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..baselines.dlpt_dht import HashedMapping
from ..lb.kchoices import KChoices
from ..lb.mlt import MLT
from ..lb.nolb import NoLB
from ..peers.churn import DYNAMIC, STABLE
from ..workloads.requests import figure8_schedule
from .config import ExperimentConfig
from .metrics import series_table
from .runner import SeriesRunner, compare_balancers, run_labeled_series

#: Load fractions used for the figures.  "No overload" (10% of aggregate
#: capacity) leaves the platform under-subscribed, so drops come only from
#: placement imbalance; "overload" (50%) is the paper's stress regime —
#: "a very high number of requests, in order to stress the system" — where
#: clustered keys overwhelm their hosts and satisfaction is globally lower.
LOW_LOAD = 0.10
HIGH_LOAD = 0.50


@dataclass
class FigureResult:
    """A reproduced figure: named mean curves over an x axis (time units for
    the paper's figures; replication degree or crash rate for the fault
    figures, which set ``x_name``/``y_label`` accordingly)."""

    figure_id: str
    title: str
    x: List[int]
    series: Dict[str, np.ndarray]
    n_runs: int
    params: Dict[str, object] = field(default_factory=dict)
    x_name: str = "time"
    y_label: str = ""

    def as_table(self) -> str:
        return series_table(
            self.x, {k: list(v) for k, v in self.series.items()}, x_name=self.x_name
        )


def render_figure_text(
    fig: FigureResult, no_plot: bool = False, include_params: bool = False
) -> str:
    """A figure as deterministic text: header, optional resolved params,
    ASCII plot, per-unit series table.  The single renderer behind both the
    CLI's figure output and the ``repro paper`` artifacts, so the two can
    never drift."""
    import json

    from .ascii_plot import ascii_plot

    # Satisfaction/availability figures plot percentages on a fixed 0–100
    # axis; hop/gain/cost figures autoscale.
    title = fig.title.lower()
    is_pct = all(word not in title for word in ("hops", "gain", "cost"))
    lines = [f"# {fig.figure_id}: {fig.title}  (runs={fig.n_runs})"]
    if include_params:
        lines.append(
            "params: "
            + json.dumps(
                {k: repr(v) for k, v in sorted(fig.params.items())},
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    if not no_plot:
        lines.append(
            ascii_plot(
                {k: list(v) for k, v in fig.series.items()},
                width=78,
                height=20,
                y_min=0 if is_pct else None,
                y_max=100 if is_pct else None,
                x_label="time unit" if fig.x_name == "time" else fig.x_name,
                y_label=fig.y_label
                or ("% satisfied" if is_pct else "hops/request"),
                title="",
            )
        )
    lines.append("")
    lines.append(fig.as_table())
    return "\n".join(lines)


def three_curve_balancers() -> list:
    """The balancer panel of Figures 4–8: MLT, KC (k=4), and the no-LB
    baseline.  A factory (fresh instances) because MLT keeps no state but
    future heuristics might."""
    return [MLT(), KChoices(k=4), NoLB()]


def _three_curve_figure(
    figure_id: str,
    title: str,
    config: ExperimentConfig,
    n_runs: int,
    run_series: SeriesRunner = None,
) -> FigureResult:
    results = compare_balancers(
        config, three_curve_balancers(), n_runs, run_series
    )
    series = {
        f"{name} enabled" if name != "NoLB" else "No LB": res.mean_curve("satisfied_pct")
        for name, res in results.items()
    }
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x=list(range(config.total_units)),
        series=series,
        n_runs=n_runs,
        params={
            "load_fraction": config.load_fraction,
            "churn": (config.churn.join_fraction, config.churn.leave_fraction),
            "n_peers": config.n_peers,
            "corpus_size": len(config.corpus),
        },
    )


def figure4_config(**overrides) -> ExperimentConfig:
    """Figure 4's configuration: stable network, low load."""
    return ExperimentConfig(churn=STABLE, load_fraction=LOW_LOAD, **overrides)


def figure5_config(**overrides) -> ExperimentConfig:
    """Figure 5's configuration: stable network, high (stress) load."""
    return ExperimentConfig(churn=STABLE, load_fraction=HIGH_LOAD, **overrides)


def figure6_config(**overrides) -> ExperimentConfig:
    """Figure 6's configuration: dynamic network (10% churn/unit), low load."""
    return ExperimentConfig(churn=DYNAMIC, load_fraction=LOW_LOAD, **overrides)


def figure7_config(**overrides) -> ExperimentConfig:
    """Figure 7's configuration: dynamic network, high load."""
    return ExperimentConfig(churn=DYNAMIC, load_fraction=HIGH_LOAD, **overrides)


def figure8_config(intensity: float = 0.8, **overrides) -> ExperimentConfig:
    """Figure 8's configuration: 160 units of dynamic network under the
    uniform → S3L burst → ScaLAPACK 'P' burst → uniform timeline."""
    return ExperimentConfig(
        churn=DYNAMIC,
        load_fraction=HIGH_LOAD,
        total_units=160,
        schedule=figure8_schedule(intensity=intensity),
        **overrides,
    )


def figure9_configs(intensity: float = 0.8, **overrides) -> Dict[str, ExperimentConfig]:
    """Figure 9's two configurations, keyed by series label: the
    lexicographic mapping with MLT, and the original DLPT's random (hashed)
    mapping with no balancing.  Both run the Figure 8 timeline at low load."""
    base = dict(
        churn=DYNAMIC,
        load_fraction=LOW_LOAD,
        total_units=160,
        schedule=figure8_schedule(intensity=intensity),
    )
    base.update(overrides)
    return {
        "lexicographic+MLT": ExperimentConfig(lb=MLT(), **base),
        "random-mapping": ExperimentConfig(
            lb=NoLB(), mapping_factory=HashedMapping, **base
        ),
    }


#: Config factory per three-curve figure — the sweep planner enumerates
#: cells from these so the orchestrator and the figure harnesses can never
#: disagree about what a figure runs.
FIGURE_CONFIGS = {
    "fig4": figure4_config,
    "fig5": figure5_config,
    "fig6": figure6_config,
    "fig7": figure7_config,
    "fig8": figure8_config,
}


def figure4(n_runs: int = 30, run_series: SeriesRunner = None, **overrides) -> FigureResult:
    """Stable network, low load: % satisfied requests over 50 units."""
    return _three_curve_figure(
        "fig4", "Load balancing - stable network - no overload",
        figure4_config(**overrides), n_runs, run_series,
    )


def figure5(n_runs: int = 30, run_series: SeriesRunner = None, **overrides) -> FigureResult:
    """Stable network, high load (stress): satisfaction globally lower."""
    return _three_curve_figure(
        "fig5", "Load balancing - stable network - overload",
        figure5_config(**overrides), n_runs, run_series,
    )


def figure6(n_runs: int = 30, run_series: SeriesRunner = None, **overrides) -> FigureResult:
    """Dynamic network (10% churn/unit), low load."""
    return _three_curve_figure(
        "fig6", "Comparing LB algorithms - dynamic network - no overload",
        figure6_config(**overrides), n_runs, run_series,
    )


def figure7(n_runs: int = 30, run_series: SeriesRunner = None, **overrides) -> FigureResult:
    """Dynamic network, high load."""
    return _three_curve_figure(
        "fig7", "Comparing LB algorithms - dynamic network - overload",
        figure7_config(**overrides), n_runs, run_series,
    )


def figure8(
    n_runs: int = 50,
    intensity: float = 0.8,
    run_series: SeriesRunner = None,
    **overrides,
) -> FigureResult:
    """Hot spots over 160 units: uniform → S3L burst → ScaLAPACK 'P' burst
    → uniform.  The network is dynamic, as in the paper."""
    config = figure8_config(intensity=intensity, **overrides)
    result = _three_curve_figure(
        "fig8", "Load balancing - dynamic network - hot spots",
        config, n_runs, run_series,
    )
    result.params["hot_spots"] = [(40, 80, "S3L"), (80, 120, "P")]
    return result


def figure9(
    n_runs: int = 100,
    intensity: float = 0.8,
    run_series: SeriesRunner = None,
    **overrides,
) -> FigureResult:
    """Communication gain of the lexicographic mapping.

    Three curves over the Figure 8 timeline:

    * logical hops per request (mapping-independent tree distance);
    * physical hops under the *random* (DHT/hashed) mapping of the original
      DLPT [5] — locality destroyed, nearly every logical hop crosses peers;
    * physical hops under the lexicographic mapping with MLT enabled.
    """
    configs = figure9_configs(intensity=intensity, **overrides)
    series = (run_series or run_labeled_series)(
        [(cfg, label) for label, cfg in configs.items()], n_runs
    )
    lex, rnd = series["lexicographic+MLT"], series["random-mapping"]
    total = configs["lexicographic+MLT"].total_units
    return FigureResult(
        figure_id="fig9",
        title="Communication gain",
        x=list(range(total)),
        series={
            "Logical hops": lex.mean_curve("mean_logical_hops"),
            "Physical hops - random mapping": rnd.mean_curve("mean_physical_hops"),
            "Physical hops - lexico. mapping with LB (MLT)": lex.mean_curve(
                "mean_physical_hops"
            ),
        },
        n_runs=n_runs,
        params={
            "load_fraction": configs["lexicographic+MLT"].load_fraction,
            "total_units": total,
        },
    )


# ---------------------------------------------------------------------------
# fault figures (beyond the paper: the conclusion defers fault handling)
# ---------------------------------------------------------------------------

#: Replication degrees swept by the availability figure (0 = no replicas).
FAULT_R_VALUES = (0, 1, 2, 3)
#: Per-peer, per-unit crash probabilities.  The availability figure sweeps
#: replication under each of ``FAULT_AVAILABILITY_RATES``; the repair
#: figure sweeps ``FAULT_REPAIR_RATES`` under each replication degree of
#: ``FAULT_REPAIR_R_VALUES``.
FAULT_AVAILABILITY_RATES = (0.02, 0.05, 0.10)
FAULT_REPAIR_RATES = (0.01, 0.02, 0.05, 0.10)
FAULT_REPAIR_R_VALUES = (1, 2)
#: Crash storms start once the tree is fully grown, so steady-state
#: availability is measured on a stable key population.
_FAULT_STORM_START = 10


def _fault_config(rate: float, r: int, **overrides) -> ExperimentConfig:
    spec = f"crash_storm:{rate:g}:start={_FAULT_STORM_START}:r={r}"
    return ExperimentConfig(
        churn=STABLE, load_fraction=LOW_LOAD, faults=spec, **overrides
    )


def fault_availability_configs(**overrides) -> Dict[str, ExperimentConfig]:
    """One config per (replication degree, crash rate) grid point, keyed by
    a ``r=R|rate=X`` label — the availability figure's cell grid."""
    return {
        f"r={r}|rate={rate:g}": _fault_config(rate, r, **overrides)
        for r in FAULT_R_VALUES
        for rate in FAULT_AVAILABILITY_RATES
    }


def fault_repair_configs(**overrides) -> Dict[str, ExperimentConfig]:
    """One config per (replication degree, crash rate) point of the repair
    figure — rates on the x axis, one curve per replication degree."""
    return {
        f"r={r}|rate={rate:g}": _fault_config(rate, r, **overrides)
        for r in FAULT_REPAIR_R_VALUES
        for rate in FAULT_REPAIR_RATES
    }


def _steady_availability(series) -> float:
    """Mean key availability (%) after the growth transient."""
    curve = series.mean_curve("key_availability_pct")
    return float(np.mean(curve[_FAULT_STORM_START:]))


def fault_availability(
    n_runs: int = 10, run_series: SeriesRunner = None, **overrides
) -> FigureResult:
    """Key availability vs replication degree ``r`` under crash storms.

    x is the successor-replication factor; one curve per storm rate.  The
    y value of a point is the steady-state fraction of registered keys
    still resolvable, averaged over the post-growth units — the figure
    behind the claim that successor replication buys back the durability
    fail-stop crashes destroy.
    """
    configs = fault_availability_configs(**overrides)
    results = (run_series or run_labeled_series)(
        [(cfg, label) for label, cfg in configs.items()], n_runs
    )
    series = {
        f"crash rate {rate:.0%}": np.array(
            [_steady_availability(results[f"r={r}|rate={rate:g}"]) for r in FAULT_R_VALUES]
        )
        for rate in FAULT_AVAILABILITY_RATES
    }
    sample = next(iter(configs.values()))
    return FigureResult(
        figure_id="fault_availability",
        title="Availability vs replication degree - crash storms",
        x=list(FAULT_R_VALUES),
        series=series,
        n_runs=n_runs,
        params={
            "rates": list(FAULT_AVAILABILITY_RATES),
            "storm_start": _FAULT_STORM_START,
            "n_peers": sample.n_peers,
            "total_units": sample.total_units,
        },
        x_name="r",
        y_label="% keys available",
    )


def _repair_cost_per_crash(series) -> float:
    """Mean repair re-registrations per crash across a series' runs."""
    costs = []
    for run in series.runs:
        crashes = sum(u.crashes for u in run.units)
        cost = sum(u.repair_cost for u in run.units)
        if crashes:
            costs.append(cost / crashes)
    return float(np.mean(costs)) if costs else 0.0


def fault_repair(
    n_runs: int = 10, run_series: SeriesRunner = None, **overrides
) -> FigureResult:
    """Repair cost vs crash rate: the trie's "costly maintenance" priced.

    x is the crash rate in percent; one curve per replication degree.  The
    y value is the mean number of re-registrations each crash forces the
    repair pass to perform — every point on the tree's O(|N|) rebuild that
    the paper's Section 2 worries about.
    """
    configs = fault_repair_configs(**overrides)
    results = (run_series or run_labeled_series)(
        [(cfg, label) for label, cfg in configs.items()], n_runs
    )
    series = {
        f"repair ops/crash (r={r})": np.array(
            [
                _repair_cost_per_crash(results[f"r={r}|rate={rate:g}"])
                for rate in FAULT_REPAIR_RATES
            ]
        )
        for r in FAULT_REPAIR_R_VALUES
    }
    sample = next(iter(configs.values()))
    return FigureResult(
        figure_id="fault_repair",
        title="Repair cost vs crash rate",
        x=[round(100 * rate) for rate in FAULT_REPAIR_RATES],
        series=series,
        n_runs=n_runs,
        params={
            "r_values": list(FAULT_REPAIR_R_VALUES),
            "storm_start": _FAULT_STORM_START,
            "n_peers": sample.n_peers,
            "total_units": sample.total_units,
        },
        x_name="crash %",
        y_label="repair ops/crash",
    )


ALL_FIGURES = {
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fault_availability": fault_availability,
    "fault_repair": fault_repair,
}
