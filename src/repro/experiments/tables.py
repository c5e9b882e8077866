"""Table harnesses: Table 1 (gain summary) and Table 2 (trie-overlay
complexities, regenerated empirically).

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
from ..core.alphabet import BINARY
from ..dht.chord import ChordRing
from ..dlpt.system import DLPTSystem
from ..peers.capacity import FixedCapacity
from ..peers.churn import DYNAMIC, STABLE
from ..workloads.keys import random_binary_keys
from .config import ExperimentConfig
from .metrics import PhaseStats, gain_table_row
from .runner import SeriesRunner, compare_balancers

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


def table1_config(churn, load: float, **overrides) -> ExperimentConfig:
    """One Table 1 sweep point: the default platform under ``churn`` at
    ``load`` — shared by :func:`table1` and the sweep planner so cached
    cells and live runs key identically."""
    return ExperimentConfig(churn=churn, load_fraction=load, **overrides)


def table1(
    n_runs: int = 30,
    loads: Sequence[float] = TABLE1_LOADS,
    run_series: SeriesRunner = None,
    **overrides,
) -> Table1Result:
    """Regenerate Table 1: gain of each heuristic vs no-LB per load level."""
    from .figures import three_curve_balancers

    balancers = three_curve_balancers()  # the sweep planner's exact panel
    gains: Dict[str, Dict[float, Dict[str, float]]] = {"stable": {}, "dynamic": {}}
    for net_name, churn in TABLE1_NETWORKS:
        for load in loads:
            config = table1_config(churn, load, **overrides)
            results = compare_balancers(config, balancers, n_runs, run_series)
            gains[net_name][load] = gain_table_row(
                results["MLT"], results["KC"], results["NoLB"]
            )
    return Table1Result(gains=gains, n_runs=n_runs, loads=list(loads))


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
        return "\n".join(lines)

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
