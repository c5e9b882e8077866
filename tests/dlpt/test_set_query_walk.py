"""The macro model's one set-query walk, pinned on a small fixed tree.

Every route case of docs/queries.md — no entry, an entry inside the band,
an entry outside it, an empty band, and a root that diverges from the
anchor — with its hop counters, its scan size, the first exhausted host
and exactly which ``(peer, node)`` pairs were charged.  Capacity 1 makes
a second visit to any peer within one query a drop.  Then the forest
rules: one jump per extra scanned fragment, a dead end that is charged,
and no-entry queries that start at the first scan root.
"""

from __future__ import annotations

import random

import pytest

from repro.core.queries import ExactQuery, PrefixQuery, RangeQuery
from repro.dlpt.failures import crash_peer
from repro.dlpt.system import DLPTSystem
from repro.peers.capacity import FixedCapacity
from repro.workloads.keys import grid_service_corpus

#: 30 grid-corpus keys: a root ``""`` with the families P, S3L_, c, d, s, z.
KEYS = grid_service_corpus()[::25]
PEERS = ["Pz", "S3L_z", "dgd", "dgesz", "t"]


def system_of(keys) -> DLPTSystem:
    system = DLPTSystem(capacity_model=FixedCapacity(1))
    system.add_peers(random.Random(0), peer_ids=PEERS)
    system.register_batch(keys)
    return system


def served(system, query, entry):
    """``(outcome, charged)`` of one query on fresh capacity budgets;
    ``charged`` lists every ``(peer, node)`` the query asked to process,
    accepted or refused."""
    system.end_time_unit()
    out = system.search(query, entry_label=entry)
    charged = sorted((p.id, label) for p in system.ring for label in p.node_load)
    return out, charged


def counters(out):
    return out.logical_hops, out.physical_hops, out.nodes_scanned, out.dropped_at


@pytest.fixture(scope="module")
def tree_system():
    return system_of(KEYS)


class TestRouteCases:
    def test_no_entry_starts_at_the_scan_root(self, tree_system):
        out, charged = served(tree_system, PrefixQuery("P"), None)
        assert counters(out) == (12, 1, 13, "Pz")
        assert charged == [("Pz", label) for label in (
            "P", "Pc", "Pcdbsv", "Pclange", "Pd", "Pddbsv", "Pdlange",
            "Ps", "Psdbsv", "Pslange", "Pz")] + [("S3L_z", "Pzdbsv"), ("S3L_z", "Pzlange")]

    def test_entry_inside_the_band_climbs_to_the_scan_root(self, tree_system):
        out, charged = served(tree_system, PrefixQuery("s"), "sgetrf")
        assert counters(out) == (8, 0, 7, "t")
        assert charged == [("t", label) for label in (
            "s", "sg", "sgbtrf", "sgetrf", "slangb", "sscal", "strevc")]

    def test_entry_outside_the_band_climbs_then_descends(self, tree_system):
        out, charged = served(tree_system, PrefixQuery("Pd"), "cher")
        assert counters(out) == (6, 1, 3, "Pz")
        assert charged == [("Pz", "Pd"), ("Pz", "Pddbsv"), ("Pz", "Pdlange")]

    def test_empty_band_dies_at_the_spine_tip(self, tree_system):
        out, charged = served(tree_system, PrefixQuery("dz"), "Pcdbsv")
        assert out.results == ()
        assert counters(out) == (4, 1, 0, None)
        assert charged == [("dgd", "d")]

    def test_empty_band_without_an_entry_costs_nothing(self, tree_system):
        out, charged = served(tree_system, PrefixQuery("dz"), None)
        assert counters(out) == (0, 0, 0, None) and charged == []

    def test_range_band_is_pruned(self, tree_system):
        out, charged = served(tree_system, RangeQuery("cher", "dgerc"), "ztrsv")
        assert out.results == ("cher", "cpotrs", "csymv", "dcopy", "dgerc")
        assert counters(out) == (9, 2, 8, "dgd")
        assert charged == [
            ("Pz", ""), ("dgd", "c"), ("dgd", "cher"), ("dgd", "cpotrs"),
            ("dgd", "csymv"), ("dgd", "d"), ("dgd", "dcopy"), ("dgesz", "dgerc"),
        ]

    def test_exact_probe(self, tree_system):
        out, charged = served(tree_system, ExactQuery("sgbtrf"), "dcopy")
        assert counters(out) == (5, 2, 1, None)
        assert charged == [("t", "sgbtrf")]

    def test_root_that_diverges_from_the_anchor(self):
        system = system_of([k for k in KEYS if k.startswith("s")])
        assert system.tree.root.label == "s"
        out, charged = served(system, PrefixQuery("z"), "sgbtrf")
        assert counters(out) == (2, 0, 0, None) and charged == [("t", "s")]
        out, charged = served(system, PrefixQuery("z"), None)
        assert counters(out) == (0, 0, 0, None) and charged == []


class TestForest:
    """Crashing ``Pz`` destroys the root and the P / z families, leaving
    six fragments: Pzdbsv, Pzlange, S3L_, c, d and s."""

    @pytest.fixture
    def forest(self):
        system = system_of(KEYS)
        crash_peer(system, "Pz")
        system.router.sync()
        assert system.router.fragment_roots() == ("Pzdbsv", "Pzlange", "S3L_", "c", "d", "s")
        return system

    def test_no_entry_starts_at_the_first_scan_root(self, forest):
        # Every node is scanned: 24 - 6 scan forwards plus 5 jumps.
        out, charged = served(forest, PrefixQuery(""), None)
        assert out.results == tuple(sorted(forest.registered_keys()))
        assert counters(out) == (23, 7, 24, "S3L_z")
        assert len(charged) == len(forest.tree) == 24

    def test_one_jump_per_extra_scanned_fragment(self, forest):
        out, charged = served(forest, PrefixQuery("P"), None)
        assert out.results == ("Pzdbsv", "Pzlange")
        assert counters(out) == (1, 1, 2, "S3L_z")
        # The entry's walk (sgetrf -> sg -> s) adds its two climbs.
        out, _ = served(forest, PrefixQuery(""), "sgetrf")
        assert counters(out) == (25, 7, 24, "S3L_z")

    def test_dead_end_is_charged(self, forest):
        # From cher the token climbs to c, whose fragment has no node
        # extending "dg": it dies there and c's host pays.  The scan of
        # d's fragment still answers the query.
        out, charged = served(forest, PrefixQuery("dg"), "cher")
        assert out.results == ("dgerc",)
        assert counters(out) == (1, 0, 1, None)
        assert charged == [("dgd", "c"), ("dgesz", "dgerc")]
        out, charged = served(forest, PrefixQuery("P"), "cher")
        assert counters(out) == (2, 1, 2, "S3L_z")
        assert ("dgd", "c") in charged
