"""Discovery routing: the up-then-down traversal of Section 2."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pgcp import PGCPTree
from repro.dlpt.routing import DiscoveryRouter, route_path
from repro.workloads.keys import paper_figure1_binary_keys

binary_keys = st.text(alphabet="01", min_size=1, max_size=10)


def tree_of(keys):
    t = PGCPTree()
    for k in keys:
        t.insert(k)
    return t


@pytest.fixture
def fig1_tree():
    return tree_of(paper_figure1_binary_keys())


class TestRoutePath:
    def test_request_at_target(self, fig1_tree):
        p = route_path(fig1_tree, "10101", "10101")
        assert p.found and p.labels == ["10101"] and p.logical_hops == 0

    def test_up_then_down(self, fig1_tree):
        p = route_path(fig1_tree, "01", "10111")
        assert p.found
        assert p.labels == ["01", "", "101", "10111"]
        assert p.logical_hops == 3

    def test_down_only_from_ancestor(self, fig1_tree):
        p = route_path(fig1_tree, "101", "101111")
        assert p.found
        assert p.labels == ["101", "10111", "101111"]

    def test_up_only_to_ancestor(self, fig1_tree):
        p = route_path(fig1_tree, "101111", "10111")
        assert p.found and p.labels == ["101111", "10111"]

    def test_missing_key_stops_at_neighbourhood(self, fig1_tree):
        p = route_path(fig1_tree, "01", "1110")
        assert not p.found
        assert p.labels[-1] == ""  # no child of ε towards 11…

    def test_missing_key_below_leaf(self, fig1_tree):
        p = route_path(fig1_tree, "01", "1010100")
        assert not p.found
        assert p.labels[-1] == "10101"

    def test_missing_key_prefixing_a_node(self, fig1_tree):
        # key 1010 would sit between 101 and 10101: not found.
        p = route_path(fig1_tree, "10111", "1010")
        assert not p.found

    def test_unknown_entry_raises(self, fig1_tree):
        with pytest.raises(KeyError):
            route_path(fig1_tree, "zz", "01")

    def test_structural_node_reachable(self, fig1_tree):
        # Routing to a structural label succeeds (found means label match;
        # data presence is the service layer's concern).
        p = route_path(fig1_tree, "01", "101")
        assert p.found

    @settings(max_examples=100)
    @given(keys=st.lists(binary_keys, min_size=1, max_size=20), data=st.data())
    def test_every_key_reachable_from_every_entry(self, keys, data):
        tree = tree_of(keys)
        labels = sorted(tree.labels())
        entry = data.draw(st.sampled_from(labels))
        target = data.draw(st.sampled_from(sorted(keys)))
        p = route_path(tree, entry, target)
        assert p.found and p.labels[-1] == target
        assert p.labels[0] == entry

    @settings(max_examples=100)
    @given(keys=st.lists(binary_keys, min_size=1, max_size=20), data=st.data())
    def test_path_is_a_tree_walk(self, keys, data):
        """Consecutive path labels are parent/child in the tree."""
        tree = tree_of(keys)
        labels = sorted(tree.labels())
        entry = data.draw(st.sampled_from(labels))
        target = data.draw(st.sampled_from(sorted(keys)))
        p = route_path(tree, entry, target)
        for a, b in zip(p.labels, p.labels[1:]):
            na, nb = tree.node(a), tree.node(b)
            assert nb.parent is na or na.parent is nb

    @settings(max_examples=100)
    @given(keys=st.lists(binary_keys, min_size=1, max_size=20), data=st.data())
    def test_hops_bounded_by_twice_depth(self, keys, data):
        tree = tree_of(keys)
        entry = data.draw(st.sampled_from(sorted(tree.labels())))
        target = data.draw(st.sampled_from(sorted(keys)))
        p = route_path(tree, entry, target)
        assert p.logical_hops <= 2 * max(tree.depth(), 1)


class _OnePeerMapping:
    """Trivial mapping stand-in: every label hosted by one fake peer."""

    class _FakePeer:
        id = "peer"

    def __init__(self):
        self.peer = self._FakePeer()
        self.version = 0

    def host_of(self, label):
        return self.peer


class TestDiscoveryRouter:
    def router_for(self, tree, mapping=None):
        router = DiscoveryRouter(tree, mapping or _OnePeerMapping())
        router.sync()
        return router

    def test_spine_is_root_path_of_present_key(self, fig1_tree):
        router = self.router_for(fig1_tree)
        labels, found = router.spine("101111")
        assert found and list(labels) == ["", "101", "10111", "101111"]

    def test_spine_of_absent_key_stops_at_neighbourhood(self, fig1_tree):
        router = self.router_for(fig1_tree)
        labels, found = router.spine("1010100")
        assert not found and labels[-1] == "10101"

    def test_empty_spine_when_root_does_not_prefix(self):
        tree = tree_of(["10", "11"])  # root "1"
        router = self.router_for(tree)
        labels, found = router.spine("01")
        assert labels == () and not found

    def test_version_guard_invalidates_on_mutation(self, fig1_tree):
        router = self.router_for(fig1_tree)
        assert router.spine("10101")[1]
        fig1_tree.insert("1010")  # structural change bumps tree.version
        router.sync()
        labels, found = router.spine("1010")
        assert found and labels[-1] == "1010"

    def test_warm_equals_lazy(self, fig1_tree):
        mapping = _OnePeerMapping()
        lazy = self.router_for(fig1_tree, mapping)
        warm = self.router_for(fig1_tree, mapping)
        warm.warm()
        for label in sorted(fig1_tree.labels()):
            assert warm.node_info(label) == lazy.node_info(label)
            assert warm.spine(label) == lazy.spine(label)


class TestScanRoot:
    """The scan root of a prefix: the highest node whose subtree holds
    every key extending it (``None`` when no node does)."""

    @staticmethod
    def scan_root(tree, prefix):
        node = tree.scan_root(prefix)
        return None if node is None else node.label

    def test_subtree_root_exact_node(self, fig1_tree):
        assert self.scan_root(fig1_tree, "101") == "101"

    def test_subtree_root_between_nodes(self, fig1_tree):
        # Prefix 1010 is covered by node 10101.
        assert self.scan_root(fig1_tree, "1010") == "10101"

    def test_subtree_root_missing_band(self, fig1_tree):
        assert self.scan_root(fig1_tree, "11") is None

    def test_subtree_root_of_empty_tree(self):
        assert self.scan_root(PGCPTree(), "1") is None
