"""Per-run and aggregated experiment metrics.

The paper's reported quantities:

* **percentage of satisfied requests** per time unit (Figures 4–8);
* **gain** of a heuristic over no-LB: relative increase in total satisfied
  requests (Table 1);
* **average hops per request** per time unit — logical, and physical under
  each mapping (Figure 9).

Beyond the paper, each unit also carries a **load-imbalance factor**
(hottest peer's received load over the mean) and the **per-request hop
samples** behind tail-latency percentiles; :func:`phase_breakdown` slices
both along a schedule's phase windows, and :func:`run_metrics_dict` renders
a run as a stable JSON document (the byte-compared artefact of trace
replays).
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..util.stats import SeriesSummary, summarize_series

#: Schema tag of :func:`run_metrics_dict` documents.
METRICS_SCHEMA = "repro-metrics/1"


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (q in [0, 100]).

    Nearest-rank (rather than interpolation) keeps the result an observed
    sample, so tail hops are always attainable path lengths.  Thin wrapper
    over :func:`percentile_from_counts` — one implementation, two input
    shapes.
    """
    return percentile_from_counts(Counter(samples), q)


def percentile_from_counts(counts: Dict[int, int], q: float) -> float:
    """Nearest-rank percentile over a value→count histogram; 0.0 on empty
    input.

    Histograms are how the runner stores hop tails: hop counts are bounded
    by tree depth, so per-unit tails cost O(depth) memory instead of
    O(requests).
    """
    total = sum(counts.values())
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * total))
    cumulative = 0
    for value in sorted(counts):
        cumulative += counts[value]
        if cumulative >= rank:
            return float(value)
    return float(max(counts))  # pragma: no cover - rank <= total always hits


@dataclass
class UnitStats:
    """Counters for one time unit of one run."""

    issued: int = 0
    satisfied: int = 0
    dropped: int = 0
    not_found: int = 0
    logical_hops: int = 0  # over satisfied requests
    physical_hops: int = 0  # over satisfied requests
    migrations: int = 0
    peers: int = 0
    nodes: int = 0
    aggregate_capacity: int = 0
    #: Hottest peer's received load over the mean received load (1.0 =
    #: perfectly even; 0.0 when no request arrived this unit).
    load_imbalance: float = 0.0
    #: hops → number of satisfied requests that took that many logical hops
    #: this unit: the (depth-bounded) distribution behind the tail
    #: percentiles.
    hop_histogram: Dict[int, int] = field(default_factory=dict)
    # Fault-injection accounting (all zero on fault-free runs).
    #: Fail-stop crashes applied this unit.
    crashes: int = 0
    #: Live peers unreachable behind a partition this unit.
    partitioned: int = 0
    #: Registered keys destroyed by this unit's crashes.
    keys_lost: int = 0
    #: Lost keys recovered from successor replicas by this unit's repair.
    keys_recovered: int = 0
    #: Lost keys no surviving copy could restore (true data loss).
    keys_unrecoverable: int = 0
    #: Re-registrations performed by this unit's repair pass.
    repair_cost: int = 0
    #: Distinct keys currently registered in the tree at unit end.
    keys_present: int = 0
    #: Keys that *should* be registered (everything ever registered).
    keys_expected: int = 0
    #: crash-to-repair delay (units) → number of crashes repaired at that
    #: delay this unit: the distribution behind time-to-repair tails.
    ttr_histogram: Dict[int, int] = field(default_factory=dict)
    # Set-query accounting (all zero without a query axis).
    #: Set queries (prefix/range/exact scans) issued this unit.
    queries_issued: int = 0
    #: Set queries fully served within every scanned host's budget.
    queries_satisfied: int = 0
    #: Set queries that exhausted some scanned host's budget.
    queries_dropped: int = 0
    #: Total result-set size over this unit's queries.
    query_results: int = 0
    #: Logical / physical hops over *satisfied* queries.
    query_logical_hops: int = 0
    query_physical_hops: int = 0
    #: hops → number of satisfied queries that took that many logical hops.
    query_hop_histogram: Dict[int, int] = field(default_factory=dict)

    def absorb_requests(self, batch) -> None:
        """Fold a batch of served requests into this unit's counters.

        ``batch`` is any object with the request-side counter fields
        (:class:`repro.dlpt.routing.BatchOutcome`): issued/satisfied/
        dropped/not_found totals, hop sums and the hops→count histogram.
        Count-dict accumulation end to end — no per-request sample lists
        are ever materialised.
        """
        self.issued += batch.issued
        self.satisfied += batch.satisfied
        self.dropped += batch.dropped
        self.not_found += batch.not_found
        self.logical_hops += batch.logical_hops
        self.physical_hops += batch.physical_hops
        hist = self.hop_histogram
        for hops, count in batch.hop_histogram.items():
            hist[hops] = hist.get(hops, 0) + count

    def absorb_queries(self, batch) -> None:
        """Fold a batch of served set queries into this unit's counters
        (``batch`` is a :class:`repro.dlpt.routing.QueryBatchOutcome`)."""
        self.queries_issued += batch.issued
        self.queries_satisfied += batch.satisfied
        self.queries_dropped += batch.dropped
        self.query_results += batch.results_total
        self.query_logical_hops += batch.logical_hops
        self.query_physical_hops += batch.physical_hops
        hist = self.query_hop_histogram
        for hops, count in batch.hop_histogram.items():
            hist[hops] = hist.get(hops, 0) + count

    @property
    def satisfied_pct(self) -> float:
        return 100.0 * self.satisfied / self.issued if self.issued else 0.0

    @property
    def mean_logical_hops(self) -> float:
        return self.logical_hops / self.satisfied if self.satisfied else 0.0

    @property
    def mean_physical_hops(self) -> float:
        return self.physical_hops / self.satisfied if self.satisfied else 0.0

    @property
    def p95_hops(self) -> float:
        return percentile_from_counts(self.hop_histogram, 95.0)

    @property
    def p99_hops(self) -> float:
        return percentile_from_counts(self.hop_histogram, 99.0)

    @property
    def p95_ttr(self) -> float:
        """p95 time-to-repair (units) of the crashes repaired this unit."""
        return percentile_from_counts(self.ttr_histogram, 95.0)

    @property
    def key_availability_pct(self) -> float:
        """Registered keys present / expected (100.0 before any key)."""
        if self.keys_expected == 0:
            return 100.0
        return 100.0 * self.keys_present / self.keys_expected


@dataclass
class RunResult:
    """The full per-unit series of one simulation run."""

    units: List[UnitStats] = field(default_factory=list)

    def series(self, attr: str) -> list[float]:
        return [float(getattr(u, attr)) for u in self.units]

    @property
    def satisfied_pct(self) -> list[float]:
        return self.series("satisfied_pct")

    @property
    def total_satisfied(self) -> int:
        return sum(u.satisfied for u in self.units)

    @property
    def total_issued(self) -> int:
        return sum(u.issued for u in self.units)

    def __len__(self) -> int:
        return len(self.units)


@dataclass
class ExperimentSeries:
    """Aggregate of repeated runs of one configuration."""

    label: str
    runs: List[RunResult]

    def summary(self, attr: str = "satisfied_pct") -> SeriesSummary:
        return summarize_series([r.series(attr) for r in self.runs])

    def mean_curve(self, attr: str = "satisfied_pct") -> np.ndarray:
        return self.summary(attr).mean

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    def total_satisfied_mean(self) -> float:
        return float(np.mean([r.total_satisfied for r in self.runs]))

    def steady_state_satisfaction(self, warmup: int = 10) -> float:
        """Mean satisfied % after the tree-growth transient."""
        curve = self.mean_curve("satisfied_pct")
        return float(np.mean(curve[warmup:]))


def gain_table_row(
    mlt: ExperimentSeries, kc: ExperimentSeries, nolb: ExperimentSeries
) -> Dict[str, float]:
    """Table 1 cell pair: gain (%) of MLT and KC over no-LB on total
    satisfied requests, computed from run means."""
    base = nolb.total_satisfied_mean()
    if base <= 0:
        raise ValueError("baseline satisfied none; gain undefined")
    return {
        "MLT": 100.0 * (mlt.total_satisfied_mean() - base) / base,
        "KC": 100.0 * (kc.total_satisfied_mean() - base) / base,
    }


@dataclass(frozen=True)
class PhaseStats:
    """Aggregated metrics of one schedule phase (a ``[start, end)`` window).

    ``satisfied_pct`` is computed over the phase's pooled requests;
    ``p95_hops``/``p99_hops`` pool every satisfied request's hop count in
    the window (a true tail, not a mean of per-unit tails);
    ``mean_imbalance`` averages the per-unit load-imbalance factors.
    """

    name: str
    start: int
    end: int
    issued: int
    satisfied: int
    dropped: int
    not_found: int
    satisfied_pct: float
    mean_hops: float
    p95_hops: float
    p99_hops: float
    mean_imbalance: float
    migrations: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "issued": self.issued,
            "satisfied": self.satisfied,
            "dropped": self.dropped,
            "not_found": self.not_found,
            "satisfied_pct": self.satisfied_pct,
            "mean_hops": self.mean_hops,
            "p95_hops": self.p95_hops,
            "p99_hops": self.p99_hops,
            "mean_imbalance": self.mean_imbalance,
            "migrations": self.migrations,
        }


def phase_breakdown(
    result: RunResult, windows: Sequence[Tuple[str, int, int]]
) -> List[PhaseStats]:
    """Slice a run's per-unit series along schedule phase windows.

    ``windows`` is what ``schedule.phase_windows(total_units)`` returns:
    ``(name, start, end)`` triples.  Windows (or window parts) beyond the
    run's length are clipped; empty clips are skipped.
    """
    phases: List[PhaseStats] = []
    n = len(result.units)
    for name, start, end in windows:
        lo, hi = max(0, start), min(end, n)
        if lo >= hi:
            continue
        units = result.units[lo:hi]
        issued = sum(u.issued for u in units)
        satisfied = sum(u.satisfied for u in units)
        hop_total = sum(u.logical_hops for u in units)
        pooled: Dict[int, int] = {}
        for u in units:
            for hops, count in u.hop_histogram.items():
                pooled[hops] = pooled.get(hops, 0) + count
        imbalances = [u.load_imbalance for u in units if u.issued]
        phases.append(
            PhaseStats(
                name=name,
                start=lo,
                end=hi,
                issued=issued,
                satisfied=satisfied,
                dropped=sum(u.dropped for u in units),
                not_found=sum(u.not_found for u in units),
                satisfied_pct=100.0 * satisfied / issued if issued else 0.0,
                mean_hops=hop_total / satisfied if satisfied else 0.0,
                p95_hops=percentile_from_counts(pooled, 95.0),
                p99_hops=percentile_from_counts(pooled, 99.0),
                mean_imbalance=(
                    sum(imbalances) / len(imbalances) if imbalances else 0.0
                ),
                migrations=sum(u.migrations for u in units),
            )
        )
    return phases


#: The one field list both serialisers derive from: every ``UnitStats``
#: field; its histograms (hops/delay → count), which the store document
#: keeps and the metrics document reports as derived percentiles.
_UNIT_FIELDS = tuple(f.name for f in dataclasses.fields(UnitStats))
_HISTOGRAM_FIELDS = tuple(
    f.name for f in dataclasses.fields(UnitStats) if f.default_factory is dict
)
_METRICS_FIELDS = tuple(n for n in _UNIT_FIELDS if n not in _HISTOGRAM_FIELDS) + (
    "p95_hops", "p99_hops", "p95_ttr",
)


def run_metrics_dict(result: RunResult, label: str = "") -> Dict[str, Any]:
    """A run as a stable, JSON-serialisable document: every scalar
    :class:`UnitStats` field plus the derived percentiles.

    This is the artefact trace replays are byte-compared on: serialising
    with ``json.dumps(..., sort_keys=True)`` yields identical bytes exactly
    when two runs did identical work.
    """
    return {
        "schema": METRICS_SCHEMA,
        "label": label,
        "total_issued": result.total_issued,
        "total_satisfied": result.total_satisfied,
        "units": [
            {name: getattr(u, name) for name in _METRICS_FIELDS} for u in result.units
        ],
    }


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Full-fidelity JSON form of a run: every :class:`UnitStats` field,
    including the histograms (JSON object keys are strings; the loader
    converts them back).  Unlike :func:`run_metrics_dict` — a *reporting*
    document that serialises derived percentiles — this round-trips exactly,
    which is what the sweep result store needs for byte-identical cache
    hits."""
    units = []
    for u in result.units:
        doc = {name: getattr(u, name) for name in _UNIT_FIELDS}
        for name in _HISTOGRAM_FIELDS:
            doc[name] = {str(k): v for k, v in sorted(doc[name].items())}
        units.append(doc)
    return {"units": units}


def run_result_from_dict(doc: Dict[str, Any]) -> RunResult:
    """Inverse of :func:`run_result_to_dict`.  Documents written before a
    field existed load with that field defaulted."""
    units = []
    for u in doc["units"]:
        fields = dict(u)
        for name in _HISTOGRAM_FIELDS:
            fields[name] = {int(k): v for k, v in fields.get(name, {}).items()}
        units.append(UnitStats(**fields))
    return RunResult(units=units)


def series_to_dict(series: ExperimentSeries) -> Dict[str, Any]:
    """An :class:`ExperimentSeries` as a JSON-serialisable document."""
    return {
        "label": series.label,
        "runs": [run_result_to_dict(r) for r in series.runs],
    }


def series_from_dict(doc: Dict[str, Any]) -> ExperimentSeries:
    """Inverse of :func:`series_to_dict`."""
    return ExperimentSeries(
        label=doc["label"],
        runs=[run_result_from_dict(r) for r in doc["runs"]],
    )


def series_table(
    x: Sequence[int], columns: Dict[str, Sequence[float]], x_name: str = "time"
) -> str:
    """Render aligned numeric columns (the text twin of the paper's plots)."""
    names = list(columns)
    widths = [max(len(x_name), 6)] + [max(len(n), 8) for n in names]
    header = "  ".join(n.rjust(w) for n, w in zip([x_name] + names, widths))
    lines = [header, "-" * len(header)]
    for i, xv in enumerate(x):
        cells = [str(xv).rjust(widths[0])]
        for n, w in zip(names, widths[1:]):
            cells.append(f"{columns[n][i]:.2f}".rjust(w))
        lines.append("  ".join(cells))
    return "\n".join(lines)
