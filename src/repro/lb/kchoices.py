"""KC — the paper's adaptation of the k-choices algorithm.

Paper, Section 4: "KC is run each time a peer joins the system.  Because some
regions of the ring are more densely populated than others, KC finds, among
k potential locations for the new peer, the one that leads to the best local
load balance" — an adaptation of Ledlie & Seltzer's *k-choices* DHT load
balancer (INFOCOM 2005), which assumes heterogeneous peers and items.  The
paper sets ``k = 4``.

Placement objective: joining at candidate identifier ``c`` splits the node
interval of ``T = successor(c)``; the newcomer takes the labels ``<= c``.
Using the last closed unit's per-node loads, we score each candidate by the
local throughput after the split — the same min(load, capacity) objective as
MLT, which is what makes the two heuristics comparable:

    score(c) = min(L_moved, C_new) + min(L_T − L_moved, C_T)
"""

from __future__ import annotations

from typing import Optional

from ..core.keyspace import in_interval_open_closed
from ..dlpt.system import DLPTSystem
from .base import LoadBalancer


class KChoices(LoadBalancer):
    """Join-time placement over ``k`` random candidate identifiers."""

    name = "KC"

    def __init__(self, k: int = 4) -> None:
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        self.k = k

    def score_candidate(self, system: DLPTSystem, candidate: str, capacity: int) -> float:
        """Local pair throughput if the newcomer joined at ``candidate``."""
        ring = system.ring
        target = ring.successor_of_key(candidate)
        pred = ring.predecessor(target.id)
        moved_load = 0
        total_load = 0
        for label in target.nodes:
            l = system.node_last_load(label)
            total_load += l
            if in_interval_open_closed(label, pred.id, candidate):
                moved_load += l
        return min(moved_load, capacity) + min(total_load - moved_load, target.capacity)

    def choose_join_id(self, system: DLPTSystem, capacity: int, rng) -> str:
        if len(system.ring) == 0:
            return system.random_peer_id(rng)
        best_id: Optional[str] = None
        best_score = float("-inf")
        for _ in range(self.k):
            candidate = system.random_peer_id(rng)
            score = self.score_candidate(system, candidate, capacity)
            # Strict improvement keeps the first best among ties — with
            # candidates drawn in random order this is an unbiased tie-break.
            if score > best_score:
                best_id, best_score = candidate, score
        assert best_id is not None
        return best_id
