"""Paper artifacts: the declaration type, and the figures of Section 4.

An :class:`Artifact` says once what a figure or table *is* — its name,
header title, paper anchor, the paper's repetition count, its y axis, a
``configs(**overrides) -> {label: ExperimentConfig}`` factory and a reducer
from the batch's ``{label: ExperimentSeries}`` to the result that is
rendered.  Everything else derives from the declaration: ``run`` is
``reduce(run_series(configs))``, ``render`` is the one text layout, the
sweep plan's cells are the factory's configs (:mod:`repro.sweeps.paper`),
and the CLI's choices are the registry's keys.

``n_runs`` follows the paper (30 for Figures 4–7, 50 for Figure 8, 100 for
Figure 9); the ``smoke`` / ``quick`` profiles of ``python -m repro paper``
run fewer to stay laptop-quick.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..baselines.dlpt_dht import HashedMapping
from ..lb.kchoices import KChoices
from ..lb.mlt import MLT
from ..lb.nolb import NoLB
from ..peers.churn import DYNAMIC, STABLE
from ..workloads.dynamics import figure8_schedule
from .ascii_plot import ascii_plot
from .config import ExperimentConfig
from .metrics import ExperimentSeries, series_table
from .runner import SeriesRunner, run_labeled_series

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
    figures, which set ``x_name`` accordingly)."""

    x: List[int]
    series: Dict[str, np.ndarray]
    n_runs: int
    params: Dict[str, object] = field(default_factory=dict)
    x_name: str = "time"

    def as_text(self) -> str:
        return series_table(
            self.x, {k: list(v) for k, v in self.series.items()}, x_name=self.x_name
        )


@dataclass(frozen=True)
class Artifact:
    """One regenerable output of the paper, declared once."""

    name: str
    #: The header line's text (``# name: title``).
    title: str
    #: Where in the paper the artifact comes from — the gallery key that
    #: ``docs/reproduction.md`` must document (enforced by the tier-1
    #: doc-consistency gate).
    anchor: str
    #: The paper's repetitions per config; 0 for an artifact measured on
    #: live instances rather than run from configs.
    n_runs: int
    configs: Callable[..., Dict[str, ExperimentConfig]]
    reduce: Callable[
        [Dict[str, ExperimentConfig], Dict[str, ExperimentSeries]], object
    ]
    y_label: str = "% satisfied"
    #: Plot on the fixed 0–100 axis (satisfaction, availability) rather
    #: than autoscaling (hops, costs).
    y_percent: bool = True

    def run(
        self,
        n_runs: Optional[int] = None,
        run_series: Optional[SeriesRunner] = None,
        **overrides,
    ):
        """The artifact's result: its configs run as one batch (``n_runs``
        defaults to the paper's; ``run_series`` binds a worker count or
        the result-store cache), reduced."""
        configs = self.configs(**overrides)
        series = {}
        if configs:
            series = (run_series or run_labeled_series)(
                [(config, label) for label, config in configs.items()],
                self.n_runs if n_runs is None else n_runs,
            )
        return self.reduce(configs, series)

    def render(self, result, no_plot: bool = False, include_params: bool = False) -> str:
        """A result as deterministic text: header, then for a figure its
        optional resolved params and ASCII plot, then the table.  The one
        layout behind the CLI's output and the ``repro paper`` files."""
        lines = [
            f"# {self.name}: {self.title}"
            + (f"  (runs={result.n_runs})" if self.n_runs else "")
        ]
        if isinstance(result, FigureResult):
            if include_params:
                lines.append(
                    "params: "
                    + json.dumps(
                        {k: repr(v) for k, v in sorted(result.params.items())},
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                )
            if not no_plot:
                lines.append(
                    ascii_plot(
                        {k: list(v) for k, v in result.series.items()},
                        width=78,
                        height=20,
                        y_min=0 if self.y_percent else None,
                        y_max=100 if self.y_percent else None,
                        x_label="time unit" if result.x_name == "time" else result.x_name,
                        y_label=self.y_label,
                        title="",
                    )
                )
        lines += ["", result.as_text(), ""]
        return "\n".join(lines)


def three_curve_balancers() -> list:
    """The balancer panel of Figures 4–8: MLT, KC (k=4), and the no-LB
    baseline.  A factory (fresh instances) because MLT keeps no state but
    future heuristics might."""
    return [MLT(), KChoices(k=4), NoLB()]


def _three_curve_reduce(configs, series) -> FigureResult:
    """% satisfied requests per unit, one curve per balancer; a schedule's
    hot-spot windows are reported among the params."""
    config = configs["MLT"]
    params = {
        "load_fraction": config.load_fraction,
        "churn": (config.churn.join_fraction, config.churn.leave_fraction),
        "n_peers": config.n_peers,
        "corpus_size": len(config.corpus),
    }
    hot_spots = [
        (start, end, name.partition(":")[2])
        for name, start, end in config.schedule.phase_windows(config.total_units)
        if name.startswith("hotspot:")
    ]
    if hot_spots:
        params["hot_spots"] = hot_spots
    return FigureResult(
        x=list(range(config.total_units)),
        series={
            f"{name} enabled" if name != "NoLB" else "No LB": res.mean_curve("satisfied_pct")
            for name, res in series.items()
        },
        n_runs=series["MLT"].n_runs,
        params=params,
    )


def _figure8_timeline() -> dict:
    """160 units under uniform → S3L burst → ScaLAPACK 'P' burst → uniform
    (Figures 8 and 9)."""
    return dict(total_units=160, workload=figure8_schedule())


def _three_curve(name, title, anchor, n_runs, churn, load, timeline=dict) -> Artifact:
    """One row of Figures 4–8: the default platform under ``churn`` at
    ``load`` (``timeline`` adds a schedule, built fresh per batch),
    compared across :func:`three_curve_balancers` on common random
    numbers."""

    def configs(**overrides) -> Dict[str, ExperimentConfig]:
        config = ExperimentConfig(
            churn=churn, load_fraction=load, **{**timeline(), **overrides}
        )
        return {lb.name: config.with_lb(lb) for lb in three_curve_balancers()}

    return Artifact(name, title, anchor, n_runs, configs, _three_curve_reduce)


def _figure9_configs(**overrides) -> Dict[str, ExperimentConfig]:
    """The lexicographic mapping with MLT, and the original DLPT's random
    (hashed) mapping with no balancing, on the Figure 8 timeline at low
    load."""
    base = dict(
        churn=DYNAMIC, load_fraction=LOW_LOAD, **{**_figure8_timeline(), **overrides}
    )
    return {
        "lexicographic+MLT": ExperimentConfig(lb=MLT(), **base),
        "random-mapping": ExperimentConfig(
            lb=NoLB(), mapping_factory=HashedMapping, **base
        ),
    }


def _figure9_reduce(configs, series) -> FigureResult:
    """Three curves over the Figure 8 timeline:

    * logical hops per request (mapping-independent tree distance);
    * physical hops under the *random* (DHT/hashed) mapping of the original
      DLPT [5] — locality destroyed, nearly every logical hop crosses peers;
    * physical hops under the lexicographic mapping with MLT enabled.
    """
    lex, rnd = series["lexicographic+MLT"], series["random-mapping"]
    config = configs["lexicographic+MLT"]
    return FigureResult(
        x=list(range(config.total_units)),
        series={
            "Logical hops": lex.mean_curve("mean_logical_hops"),
            "Physical hops - random mapping": rnd.mean_curve("mean_physical_hops"),
            "Physical hops - lexico. mapping with LB (MLT)": lex.mean_curve(
                "mean_physical_hops"
            ),
        },
        n_runs=lex.n_runs,
        params={
            "load_fraction": config.load_fraction,
            "total_units": config.total_units,
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


def _fault_grid(r_values, rates) -> Callable[..., Dict[str, ExperimentConfig]]:
    """One crash-storm config per (replication degree, crash rate) grid
    point, keyed by a ``r=R|rate=X`` label."""

    def configs(**overrides) -> Dict[str, ExperimentConfig]:
        return {
            f"r={r}|rate={rate:g}": ExperimentConfig(
                churn=STABLE,
                load_fraction=LOW_LOAD,
                faults=f"crash_storm:{rate:g}:start={_FAULT_STORM_START}:r={r}",
                **overrides,
            )
            for r in r_values
            for rate in rates
        }

    return configs


def _fault_result(configs, series, x_name, x, curves, **params) -> FigureResult:
    """A fault figure: ``curves`` over ``x``, with the grid's shared
    platform facts added to ``params``."""
    sample = next(iter(configs.values()))
    return FigureResult(
        x_name=x_name,
        x=x,
        series=curves,
        n_runs=next(iter(series.values())).n_runs,
        params=dict(
            params,
            storm_start=_FAULT_STORM_START,
            n_peers=sample.n_peers,
            total_units=sample.total_units,
        ),
    )


def _steady_availability(series) -> float:
    """Mean key availability (%) after the growth transient."""
    curve = series.mean_curve("key_availability_pct")
    return float(np.mean(curve[_FAULT_STORM_START:]))


def _fault_availability_reduce(configs, series) -> FigureResult:
    """Key availability vs replication degree ``r`` under crash storms.

    x is the successor-replication factor; one curve per storm rate.  The
    y value of a point is the steady-state fraction of registered keys
    still resolvable, averaged over the post-growth units — the figure
    behind the claim that successor replication buys back the durability
    fail-stop crashes destroy.
    """
    curves = {
        f"crash rate {rate:.0%}": np.array(
            [_steady_availability(series[f"r={r}|rate={rate:g}"]) for r in FAULT_R_VALUES]
        )
        for rate in FAULT_AVAILABILITY_RATES
    }
    return _fault_result(
        configs, series, "r", list(FAULT_R_VALUES), curves,
        rates=list(FAULT_AVAILABILITY_RATES),
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


def _fault_repair_reduce(configs, series) -> FigureResult:
    """The trie's "costly maintenance" priced, per crash rate.

    x is the crash rate in percent; one curve per replication degree.  The
    y value is the mean number of re-registrations each crash forces the
    repair pass to perform — every point on the tree's O(|N|) rebuild that
    the paper's Section 2 worries about.
    """
    curves = {
        f"repair ops/crash (r={r})": np.array(
            [
                _repair_cost_per_crash(series[f"r={r}|rate={rate:g}"])
                for rate in FAULT_REPAIR_RATES
            ]
        )
        for r in FAULT_REPAIR_R_VALUES
    }
    return _fault_result(
        configs, series, "crash %",
        [round(100 * rate) for rate in FAULT_REPAIR_RATES], curves,
        r_values=list(FAULT_REPAIR_R_VALUES),
    )


FIGURES = (
    _three_curve(
        "fig4", "Load balancing - stable network - no overload",
        "Figure 4, Section 4 (stable network, no overload)", 30, STABLE, LOW_LOAD,
    ),
    _three_curve(
        "fig5", "Load balancing - stable network - overload",
        "Figure 5, Section 4 (stable network, overload)", 30, STABLE, HIGH_LOAD,
    ),
    _three_curve(
        "fig6", "Comparing LB algorithms - dynamic network - no overload",
        "Figure 6, Section 4 (dynamic network, no overload)", 30, DYNAMIC, LOW_LOAD,
    ),
    _three_curve(
        "fig7", "Comparing LB algorithms - dynamic network - overload",
        "Figure 7, Section 4 (dynamic network, overload)", 30, DYNAMIC, HIGH_LOAD,
    ),
    _three_curve(
        "fig8", "Load balancing - dynamic network - hot spots",
        "Figure 8, Section 4 (hot spots)", 50, DYNAMIC, HIGH_LOAD, _figure8_timeline,
    ),
    Artifact(
        "fig9", "Communication gain",
        "Figure 9, Section 4 (communication gain of the mapping)", 100,
        _figure9_configs, _figure9_reduce, "hops/request", False,
    ),
    Artifact(
        "fault_availability", "Availability vs replication degree - crash storms",
        "Section 5, beyond the paper (availability under crash storms)", 10,
        _fault_grid(FAULT_R_VALUES, FAULT_AVAILABILITY_RATES),
        _fault_availability_reduce, "% keys available",
    ),
    Artifact(
        "fault_repair", "Repair cost vs crash rate",
        "Section 5, beyond the paper (repair cost of trie maintenance)", 10,
        _fault_grid(FAULT_REPAIR_R_VALUES, FAULT_REPAIR_RATES),
        _fault_repair_reduce, "repair ops/crash", False,
    ),
)
