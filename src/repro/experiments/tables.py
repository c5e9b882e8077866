"""The table artifacts (:data:`TABLES`): Table 1 (gain summary), Table 2
(trie-overlay complexities, regenerated empirically) and the set-query
cost table (:mod:`repro.baselines.query_cost`).

Table 1 sweeps the load ratio over {5, 10, 16, 24, 40, 80}% for the stable
and dynamic networks and reports the *gain* of MLT and KC over no-LB on the
number of satisfied requests.

Table 2 compares P-Grid, PHT and DLPT.  The paper states the analytic
complexities (P-Grid: O(log |Π|) routing, O(log |Π|) state; PHT:
O(D log P) routing, |N|/|P|·|A| state; DLPT: O(D) routing, |N|/|P|·|A|
state).  We *measure* routing hops and per-peer state on live instances of
all three systems over a common binary-key workload, so the table's scaling
claims are checked rather than transcribed.
"""

from __future__ import annotations


import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..baselines.pgrid import PGrid
from ..baselines.pht import PrefixHashTree
from ..baselines.query_cost import measure_query_cost
from ..core.alphabet import BINARY
from ..dht.chord import ChordRing
from ..dlpt.system import DLPTSystem
from ..peers.capacity import FixedCapacity
from ..peers.churn import DYNAMIC, STABLE
from ..workloads.keys import random_binary_keys
from .config import ExperimentConfig
from .figures import Artifact, three_curve_balancers
from .metrics import PhaseStats, gain_table_row

#: The paper's Table 1 load column.
TABLE1_LOADS = (0.05, 0.10, 0.16, 0.24, 0.40, 0.80)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    """gains[network][load][heuristic] -> % gain over no-LB."""

    gains: Dict[str, Dict[float, Dict[str, float]]]
    n_runs: int
    loads: Sequence[float]

    def as_text(self) -> str:
        header = (
            f"{'Load':>6} | {'Stable MLT':>10} {'Stable KC':>10} | "
            f"{'Dynamic MLT':>11} {'Dynamic KC':>10}"
        )
        lines = [header, "-" * len(header)]
        for load in self.loads:
            s = self.gains["stable"][load]
            d = self.gains["dynamic"][load]
            lines.append(
                f"{load:>5.0%} | {s['MLT']:>9.2f}% {s['KC']:>9.2f}% | "
                f"{d['MLT']:>10.2f}% {d['KC']:>9.2f}%"
            )
        return "\n".join(lines)


#: Table 1's network axis: the paper's stable and dynamic regimes.
TABLE1_NETWORKS = (("stable", STABLE), ("dynamic", DYNAMIC))


def _table1_configs(
    loads: Sequence[float] = TABLE1_LOADS, **overrides
) -> Dict[str, ExperimentConfig]:
    """Table 1's whole grid as one batch: the default platform under each
    network at each load under each balancer, labelled ``net|load|lb``."""
    configs: Dict[str, ExperimentConfig] = {}
    for net, churn in TABLE1_NETWORKS:
        for load in loads:
            config = ExperimentConfig(churn=churn, load_fraction=load, **overrides)
            for lb in three_curve_balancers():
                configs[f"{net}|{load:g}|{lb.name}"] = config.with_lb(lb)
    return configs


def _table1_reduce(configs, series) -> Table1Result:
    """Gain of each heuristic vs no-LB per network and load level."""
    loads = list(dict.fromkeys(c.load_fraction for c in configs.values()))
    gains = {
        net: {
            load: gain_table_row(
                *(series[f"{net}|{load:g}|{lb}"] for lb in ("MLT", "KC", "NoLB"))
            )
            for load in loads
        }
        for net, _ in TABLE1_NETWORKS
    }
    return Table1Result(
        gains=gains, n_runs=next(iter(series.values())).n_runs, loads=loads
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    """Measured routing/state numbers for one (system, N, P, D) point."""

    system: str
    n_keys: int
    n_peers: int
    key_bits: int
    mean_routing_hops: float
    mean_local_state: float
    analytic_routing: str
    analytic_state: str


@dataclass
class Table2Result:
    rows: List[Table2Row] = field(default_factory=list)

    def as_text(self) -> str:
        header = (
            f"{'System':>7} {'N':>6} {'P':>5} {'D':>4} | "
            f"{'hops':>7} {'state':>8} | routing / state (paper)"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.system:>7} {r.n_keys:>6} {r.n_peers:>5} {r.key_bits:>4} | "
                f"{r.mean_routing_hops:>7.2f} {r.mean_local_state:>8.2f} | "
                f"{r.analytic_routing} / {r.analytic_state}"
            )
        return "\n".join(lines) + "\n\npaper (analytic):\n" + paper_table2_text()

    def rows_for(self, system: str) -> List[Table2Row]:
        return [r for r in self.rows if r.system == system]


def _measure_dlpt(keys: List[str], n_peers: int, key_bits: int, rng) -> Table2Row:
    system = DLPTSystem(alphabet=BINARY, capacity_model=FixedCapacity(10**9))
    system.build(rng, n_peers)
    for k in keys:
        system.register(k)
    sample = rng.sample(keys, min(len(keys), 300))
    hops = []
    for key in sample:
        out = system.discover(key, rng=rng)
        assert out.satisfied
        hops.append(out.logical_hops)
    # Local state: a node's record holds |children| child links (bounded by
    # |A|) plus a father link; a peer's state is the sum over its nodes.
    states = [
        sum(len(system.tree.node(lbl).children) + 1 for lbl in peer.nodes)
        for peer in system.ring
    ]
    return Table2Row(
        system="DLPT",
        n_keys=len(keys),
        n_peers=n_peers,
        key_bits=key_bits,
        mean_routing_hops=sum(hops) / len(hops),
        mean_local_state=sum(states) / len(states),
        analytic_routing="O(D)",
        analytic_state="|A|·|N|/|P|",
    )


def _measure_pht(keys: List[str], n_peers: int, key_bits: int, rng) -> Table2Row:
    chord = ChordRing()
    chord.add_peers(f"peer-{i:05d}" for i in range(n_peers))
    pht = PrefixHashTree(chord, key_bits=key_bits, leaf_capacity=4)
    for k in keys:
        pht.insert(k)
    sample = rng.sample(keys, min(len(keys), 300))
    hops = [pht.lookup(k, mode="linear").dht_hops for k in sample]
    per_peer = pht.local_state()
    # Peers hosting no trie node hold zero PHT state.
    states = [per_peer.get(f"peer-{i:05d}", 0) * 2 for i in range(n_peers)]
    return Table2Row(
        system="PHT",
        n_keys=len(keys),
        n_peers=n_peers,
        key_bits=key_bits,
        mean_routing_hops=sum(hops) / len(hops),
        mean_local_state=sum(states) / len(states),
        analytic_routing="O(D·log P)",
        analytic_state="|A|·|N|/|P|",
    )


def _measure_pgrid(keys: List[str], n_peers: int, key_bits: int, rng) -> Table2Row:
    peer_ids = [f"peer-{i:05d}" for i in range(n_peers)]
    grid = PGrid(peer_ids, keys, key_bits=key_bits, rng=rng)
    sample = rng.sample(keys, min(len(keys), 300))
    hops = []
    for k in sample:
        start = peer_ids[rng.randrange(len(peer_ids))]
        found, h = grid.lookup(k, start_peer=start)
        hops.append(h)
    return Table2Row(
        system="P-Grid",
        n_keys=len(keys),
        n_peers=n_peers,
        key_bits=key_bits,
        mean_routing_hops=sum(hops) / len(hops),
        mean_local_state=grid.mean_state_size(),
        analytic_routing="O(log |Π|)",
        analytic_state="O(log |Π|)",
    )


def table2(
    scales: Sequence[tuple[int, int]] = ((250, 32), (500, 64), (1000, 128)),
    key_bits: int = 16,
    seed: int = 42,
) -> Table2Result:
    """Regenerate Table 2 empirically at several (N keys, P peers) scales.

    Expected shapes: DLPT hops track D and stay flat in P; PHT hops carry
    the extra log P factor; P-Grid hops and state grow with log |Π|.
    """
    result = Table2Result()
    for n_keys, n_peers in scales:
        rng = random.Random(seed)
        keys = random_binary_keys(rng, n_keys, length=key_bits)
        result.rows.append(_measure_pgrid(keys, n_peers, key_bits, random.Random(seed)))
        result.rows.append(_measure_pht(keys, n_peers, key_bits, random.Random(seed)))
        result.rows.append(_measure_dlpt(keys, n_peers, key_bits, random.Random(seed)))
    return result


# ---------------------------------------------------------------------------
# Per-phase workload breakdown (the `python -m repro run` report)
# ---------------------------------------------------------------------------


def phase_table(phases: Sequence[PhaseStats]) -> str:
    """Render a per-phase breakdown: satisfaction, tail hops, imbalance.

    One row per schedule phase window — the text twin of the workload
    subsystem's metrics (:func:`repro.experiments.metrics.phase_breakdown`).
    """
    name_w = max([len("phase")] + [len(p.name) for p in phases])
    header = (
        f"{'phase':>{name_w}} {'units':>9} {'issued':>8} {'sat%':>6} "
        f"{'hops':>6} {'p95':>5} {'p99':>5} {'imbal':>6} {'migr':>6}"
    )
    lines = [header, "-" * len(header)]
    for p in phases:
        lines.append(
            f"{p.name:>{name_w}} {f'{p.start}-{p.end}':>9} {p.issued:>8} "
            f"{p.satisfied_pct:>6.1f} {p.mean_hops:>6.2f} {p.p95_hops:>5.0f} "
            f"{p.p99_hops:>5.0f} {p.mean_imbalance:>6.2f} {p.migrations:>6}"
        )
    return "\n".join(lines)


def paper_table2_text() -> str:
    """The analytic Table 2 as printed in the paper, for side-by-side
    comparison with the measured one."""
    return (
        "Functionality   P-Grid        PHT           DLPT\n"
        "Tree Routing    O(log |Pi|)   O(D log P)    O(D)\n"
        "Local State     O(log |Pi|)   |N|/|P|·|A|   |N|/|P|·|A|"
    )


def _no_configs(**overrides) -> Dict[str, ExperimentConfig]:
    """Table 2 and the query-cost table measure live baseline instances —
    deterministic, sub-second, not an ExperimentSeries — so they have no
    sweep cells and bypass the result store."""
    return {}


TABLES = (
    Artifact(
        "table1", "gains of KC and MLT over no-LB",
        "Table 1, Section 4 (gain per load level)", 30,
        _table1_configs, _table1_reduce,
    ),
    Artifact(
        "table2", "complexities of close trie-structured approaches (measured)",
        "Table 2, Section 2 (P-Grid / PHT / DLPT complexities)", 0,
        _no_configs, lambda configs, series: table2(),
    ),
    Artifact(
        "query_cost",
        "set-query cost of DLPT vs P-Grid vs PHT (measured, oracle-checked)",
        "Section 2, beyond the paper (range/prefix query cost)", 0,
        _no_configs, lambda configs, series: measure_query_cost(),
    ),
)
