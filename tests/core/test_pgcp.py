"""Reference PGCP tree: Definition 1 invariants, Figure 1, search modes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pgcp import PGCPTree
from repro.workloads.keys import blas_routines, paper_figure1_binary_keys

binary_keys = st.text(alphabet="01", min_size=1, max_size=10)
name_keys = st.text(alphabet="abcdS3L_P", min_size=1, max_size=8)


def build(keys):
    tree = PGCPTree()
    for k in keys:
        tree.insert(k)
    tree.check_invariants()
    return tree


class TestPaperFigure1:
    def test_figure_1a_structure(self):
        """Figure 1(a): keys 01, 10101, 10111, 101111 force structural
        nodes 101 and ε."""
        tree = build(paper_figure1_binary_keys())
        assert tree.labels() == {"", "01", "101", "10101", "10111", "101111"}
        # ε and 101 are the unfilled structural nodes of the figure.
        assert not tree.node("").data
        assert not tree.node("101").data
        # 101111 hangs below 10111.
        assert tree.node("101111").parent is tree.node("10111")
        # 101's children are the two divergent branches.
        assert set(tree.node("101").children.values()) == {
            tree.node("10101"),
            tree.node("10111"),
        }

    def test_figure_1b_blas_no_hashing_needed(self):
        """Figure 1(b): the tree builds directly over BLAS routine names."""
        tree = build(blas_routines())
        assert tree.keys() == set(blas_routines())


class TestInsertionCases:
    """One test per Algorithm 3 case, on the sequential reference tree."""

    def test_first_key_becomes_root(self):
        tree = build(["1010"])
        assert tree.root.label == "1010"
        assert tree.root.data == {"1010"}

    def test_existing_key_accumulates_data(self):
        tree = PGCPTree()
        tree.insert("10", "server-a")
        tree.insert("10", "server-b")
        tree.check_invariants()
        assert tree.node("10").data == {"server-a", "server-b"}
        assert len(tree) == 1

    def test_key_below_leaf(self):
        tree = build(["10", "1011"])
        assert tree.node("1011").parent is tree.node("10")

    def test_key_above_root(self):
        tree = build(["1011", "10"])
        assert tree.root.label == "10"
        assert tree.node("1011").parent is tree.root

    def test_sibling_split_creates_gcp_node(self):
        tree = build(["1010", "1001"])
        assert tree.root.label == "10"
        assert not tree.root.data  # structural
        assert set(tree.root.children) == {"0", "1"}

    def test_divergent_roots_create_epsilon(self):
        tree = build(["01", "10"])
        assert tree.root.label == ""

    def test_key_between_parent_and_child(self):
        # 1 -> 10111 exists; inserting 101 must splice between them.
        tree = build(["1", "10111", "101"])
        assert tree.node("101").parent is tree.node("1")
        assert tree.node("10111").parent is tree.node("101")

    def test_split_below_interior_node(self):
        tree = build(["10", "10101", "10111"])
        # The split node 101 appears between 10 and the two leaves.
        assert tree.node("101").parent is tree.node("10")
        assert tree.node("10101").parent is tree.node("101")

    def test_insertion_returns_the_key_node(self):
        tree = PGCPTree()
        node = tree.insert("daxpy")
        assert node.label == "daxpy"

    def test_duplicate_datum_is_set_semantics(self):
        tree = PGCPTree()
        tree.insert("10", "x")
        tree.insert("10", "x")
        assert tree.node("10").data == {"x"}

    def test_epsilon_key_insertable_when_root_is_epsilon(self):
        tree = build(["01", "10"])  # root ε exists, structural
        tree.insert("", "meta")
        tree.check_invariants()
        assert tree.node("").data == {"meta"}

    def test_order_independence_of_node_set(self):
        keys = ["1010", "1001", "11", "10", "0"]
        import itertools

        expected = build(keys).labels()
        for perm in itertools.permutations(keys):
            assert build(perm).labels() == expected, perm


class TestRemoval:
    def test_remove_leaf_prunes(self):
        tree = build(["10", "1011"])
        assert tree.remove("1011")
        tree.check_invariants()
        assert "1011" not in tree

    def test_remove_contracts_single_child_chain(self):
        tree = build(["1010", "1001"])  # root "10" structural
        assert tree.remove("1001")
        tree.check_invariants()
        # Structural node 10 had one child left -> contracted away.
        assert tree.labels() == {"1010"}
        assert tree.root.label == "1010"

    def test_remove_missing_returns_false(self):
        tree = build(["10"])
        assert not tree.remove("11")

    def test_remove_structural_node_returns_false(self):
        tree = build(["1010", "1001"])
        assert not tree.remove("10")  # structural: no data

    def test_remove_specific_datum_keeps_others(self):
        tree = PGCPTree()
        tree.insert("10", "a")
        tree.insert("10", "b")
        assert tree.remove("10", "a")
        assert tree.node("10").data == {"b"}

    def test_remove_last_node_empties_tree(self):
        tree = build(["10"])
        assert tree.remove("10")
        assert tree.root is None
        assert len(tree) == 0

    def test_internal_filled_node_survives_as_structural(self):
        tree = build(["10", "100", "101"])
        assert tree.remove("10")
        tree.check_invariants()
        assert "10" in tree  # still needed structurally (2 children)
        assert not tree.node("10").data

    def test_reinsert_after_remove(self):
        tree = build(["10", "1011"])
        tree.remove("1011")
        tree.insert("1011")
        tree.check_invariants()
        assert "1011" in tree.keys()


class TestSearch:
    @pytest.fixture
    def blas_tree(self):
        return build(blas_routines())

    def test_lookup_hit(self, blas_tree):
        assert blas_tree.node("dgemm").data == {"dgemm"}

    def test_lookup_miss(self, blas_tree):
        assert blas_tree.node("nonexistent") is None

    def test_complete_partial_string(self, blas_tree):
        assert blas_tree.complete("dgem") == ["dgemm", "dgemv"]

    def test_complete_whole_key(self, blas_tree):
        assert blas_tree.complete("dgemm") == ["dgemm"]

    def test_complete_empty_prefix_returns_all(self, blas_tree):
        assert blas_tree.complete("") == sorted(blas_routines())

    def test_complete_no_match(self, blas_tree):
        assert blas_tree.complete("qq") == []

    def test_range_query(self, blas_tree):
        out = blas_tree.range_query("dgemm", "dger")
        assert out == sorted(k for k in blas_routines() if "dgemm" <= k <= "dger")

    def test_range_query_single_point(self, blas_tree):
        assert blas_tree.range_query("dgemm", "dgemm") == ["dgemm"]

    def test_range_query_empty_band(self, blas_tree):
        assert blas_tree.range_query("q", "qz") == []

    def test_range_query_bad_bounds(self, blas_tree):
        with pytest.raises(ValueError):
            blas_tree.range_query("z", "a")

    def test_depth_of_empty_and_single(self):
        assert PGCPTree().depth() == -1
        assert build(["10"]).depth() == 0


class TestObservers:
    def test_create_hook_sees_every_node(self):
        tree = PGCPTree()
        created = []
        tree.on_create = lambda n: created.append(n.label)
        for k in paper_figure1_binary_keys():
            tree.insert(k)
        assert set(created) == tree.labels()

    def test_remove_hook_fires_on_contraction(self):
        tree = PGCPTree()
        removed = []
        tree.insert("1010")
        tree.insert("1001")
        tree.on_remove = lambda n: removed.append(n.label)
        tree.remove("1001")
        assert set(removed) == {"1001", "10"}


class TestFailStopSurgery:
    """``detach`` (a crash: no contraction) and ``clear`` (a repair reset)
    keep the tree's own books: index, root, counters and hook."""

    def _observed(self, keys):
        tree = build(keys)
        removed = []
        tree.on_remove = lambda n: removed.append(n.label)
        return tree, removed

    def test_detach_inner_node_leaves_fragment_roots(self):
        tree, removed = self._observed(paper_figure1_binary_keys())
        version = tree.version
        lost = tree.detach(["101"])
        assert lost == frozenset()  # 101 is structural
        assert removed == ["101"]
        assert tree.version == version + 1
        assert tree.labels() == {"", "01", "10101", "10111", "101111"}
        for label in ("10101", "10111"):
            assert tree.node(label).parent is None
        assert set(tree.node("").children.values()) == {tree.node("01")}
        assert tree.root is tree.node("")
        assert tree.filled_count == len(tree.keys()) == 4

    def test_detach_returns_lost_keys_and_counts_them(self):
        tree, removed = self._observed(paper_figure1_binary_keys())
        lost = tree.detach(["10111", "101111", "01"])
        assert lost == {"10111", "101111", "01"}
        assert sorted(removed) == ["01", "10111", "101111"]
        assert tree.filled_count == len(tree.keys()) == 1
        assert set(tree.node("").children.values()) == {tree.node("101")}
        assert set(tree.node("101").children.values()) == {tree.node("10101")}

    def test_detach_of_the_root_empties_the_root_slot(self):
        tree, removed = self._observed(paper_figure1_binary_keys())
        tree.detach([""])
        assert removed == [""]
        assert tree.root is None
        assert tree.node("01").parent is None
        assert tree.node("101").parent is None
        assert len(tree) == 5

    def test_detach_everything_matches_clear(self):
        keys = paper_figure1_binary_keys()
        detached, _ = self._observed(keys)
        assert detached.detach(detached.labels()) == set(keys)
        cleared, removed = self._observed(keys)
        labels = cleared.labels()
        version = cleared.version
        cleared.clear()
        assert sorted(removed) == sorted(labels)  # once per node
        assert cleared.version > version
        for tree in (detached, cleared):
            assert tree.root is None and len(tree) == 0
            assert tree.filled_count == 0
            tree.check_invariants()

    def test_cleared_tree_rebuilds(self):
        tree = build(paper_figure1_binary_keys())
        tree.clear()
        tree.insert("0")
        tree.check_invariants()
        assert tree.labels() == {"0"} and tree.filled_count == 1


class TestPropertyBased:
    @settings(max_examples=200)
    @given(keys=st.lists(binary_keys, min_size=1, max_size=30))
    def test_invariants_after_any_insertion_sequence(self, keys):
        tree = build(keys)
        assert tree.keys() == set(keys)

    @settings(max_examples=100)
    @given(keys=st.lists(name_keys, min_size=1, max_size=25))
    def test_invariants_over_name_alphabet(self, keys):
        tree = build(keys)
        assert tree.keys() == set(keys)

    @settings(max_examples=100)
    @given(keys=st.lists(binary_keys, min_size=1, max_size=20, unique=True))
    def test_structural_nodes_have_two_plus_children_or_are_keys(self, keys):
        tree = build(keys)
        for node in tree.nodes():
            if not node.data and node is not tree.root:
                assert len(node.children) >= 2, (
                    f"structural non-root {node.label!r} with "
                    f"{len(node.children)} children"
                )

    @settings(max_examples=100)
    @given(
        keys=st.lists(binary_keys, min_size=2, max_size=20, unique=True),
        data=st.data(),
    )
    def test_remove_inverts_insert(self, keys, data):
        tree = build(keys)
        victim = data.draw(st.sampled_from(keys))
        survivors = [k for k in keys if k != victim]
        assert tree.remove(victim)
        tree.check_invariants()
        assert tree.keys() == set(survivors)

    @settings(max_examples=60)
    @given(keys=st.lists(binary_keys, min_size=1, max_size=20), prefix=binary_keys)
    def test_complete_agrees_with_filter(self, keys, prefix):
        tree = build(keys)
        assert tree.complete(prefix) == sorted(
            {k for k in keys if k.startswith(prefix)}
        )

    @settings(max_examples=60)
    @given(
        keys=st.lists(binary_keys, min_size=1, max_size=20),
        lo=binary_keys,
        hi=binary_keys,
    )
    def test_range_agrees_with_filter(self, keys, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        tree = build(keys)
        assert tree.range_query(lo, hi) == sorted({k for k in keys if lo <= k <= hi})

    @settings(max_examples=100)
    @given(keys=st.lists(binary_keys, min_size=2, max_size=20, unique=True))
    def test_parent_labels_are_pgcp_of_children(self, keys):
        """Definition 1 stated directly: each internal node's label equals
        the PGCP of every pair of its children's labels."""
        from repro.core.ids import pgcp

        tree = build(keys)
        for node in tree.nodes():
            kids = list(node.children.values())
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    assert pgcp([kids[i].label, kids[j].label]) == node.label
