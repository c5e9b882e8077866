"""Reference in-memory Proper-Greatest-Common-Prefix tree (Definition 1).

This is the *logical* data structure that the distributed protocol of
Section 3 maintains across peers.  The reference implementation serves three
purposes:

1. It documents the tree semantics independently of any distribution concern
   (the distributed tree in :mod:`repro.dlpt.tree` must stay node-for-node
   equivalent to it — an equivalence that is property-tested).
2. It implements the search primitives the paper claims for trie overlays:
   exact lookup, automatic completion of partial strings (prefix queries) and
   lexicographic range queries.
3. Its :meth:`PGCPTree.check_invariants` is the oracle used everywhere.

Definition 1 (paper): *a PGCP tree is a labeled rooted tree such that the
label of each node is the Proper Greatest Common Prefix of the labels of
every pair of its children.*  Consequences used as checkable invariants:

* a node's label is a proper prefix of each of its children's labels;
* two distinct children never share a common prefix longer than their
  parent's label (their GCP **is** the parent label);
* equivalently, the children's first digits after the parent label are
  pairwise distinct, so a child lookup is a single dict probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Optional

from .ids import common_prefix_len, gcp, is_proper_prefix


@dataclass(eq=False)
class PGCPNode:
    """A node of the reference tree.

    ``label`` is the node identifier; ``data`` holds the values registered
    under the key equal to the label (empty for the paper's "non-filled"
    structural nodes, e.g. ``101`` and ``ε`` in Figure 1(a)).
    """

    label: str
    parent: Optional["PGCPNode"] = None
    # Children indexed by their first digit after this node's label — valid
    # because Definition 1 forces those digits to be pairwise distinct.
    children: dict[str, "PGCPNode"] = field(default_factory=dict)
    data: set[object] = field(default_factory=set)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def child_towards(self, key: str) -> Optional["PGCPNode"]:
        """The child whose subtree could contain ``key`` (shares a prefix
        longer than this node's label), or ``None``."""
        if len(key) <= len(self.label):
            return None
        return self.children.get(key[len(self.label)])

    def add_child(self, child: "PGCPNode") -> None:
        digit = child.label[len(self.label)]
        assert digit not in self.children, "duplicate child branch digit"
        self.children[digit] = child
        child.parent = self

    def remove_child(self, child: "PGCPNode") -> None:
        digit = child.label[len(self.label)]
        assert self.children.get(digit) is child
        del self.children[digit]
        child.parent = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PGCPNode({self.label!r}, children={len(self.children)}, data={len(self.data)})"


class PGCPTree:
    """Reference PGCP tree over string keys.

    The tree starts empty; the first insertion makes the key the root.  Later
    insertions may create a new root labelled by a (possibly empty) common
    prefix, exactly as the distributed Algorithm 3 does.
    """

    def __init__(self) -> None:
        self.root: Optional[PGCPNode] = None
        self._by_label: dict[str, PGCPNode] = {}
        # Optional hooks fired on structural change; the distributed layer
        # uses them to keep the node→peer mapping in sync with the tree.
        self.on_create = None  # Callable[[PGCPNode], None]
        self.on_remove = None  # Callable[[PGCPNode], None]
        #: Structural version counter: bumped on every node creation and
        #: removal.  Read-side caches (the discovery router's spine memo)
        #: stay valid exactly while this number does not change; data-only
        #: updates on existing nodes leave routes — and the counter — alone.
        self.version = 0
        #: Number of *filled* nodes (registered keys), maintained on every
        #: data transition so callers can read it in O(1) instead of
        #: walking the tree (``len(self.keys())``).  Code that bypasses the
        #: normal insert/remove paths (crash surgery, repair resets) must
        #: reconcile it by hand, exactly like :attr:`version`.
        self.filled_count = 0

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        """Number of nodes (filled + structural)."""
        return len(self._by_label)

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def node(self, label: str) -> Optional[PGCPNode]:
        return self._by_label.get(label)

    def nodes(self) -> Iterator[PGCPNode]:
        return iter(self._by_label.values())

    def labels(self) -> set[str]:
        return set(self._by_label)

    def keys(self) -> set[str]:
        """Labels of filled nodes — the registered service keys."""
        return {lbl for lbl, n in self._by_label.items() if n.data}

    def depth(self) -> int:
        """Height of the tree in edges (0 for a single node, -1 when empty)."""
        if self.root is None:
            return -1

        def _h(n: PGCPNode) -> int:
            return 0 if not n.children else 1 + max(_h(c) for c in n.children.values())

        return _h(self.root)

    # -- insertion ---------------------------------------------------------

    def insert(self, key: str, datum: object = None) -> PGCPNode:
        """Register ``datum`` under ``key``, creating nodes as needed.

        Mirrors the four cases of Algorithm 3 (node found / key below /
        key above / sibling split), restated for a sequential tree.
        Returns the node holding the key.
        """
        if datum is None:
            datum = key
        if self.root is None:
            node = self._new_node(key)
            self.root = node
            node.data.add(datum)
            self.filled_count += 1
            return node

        node = self._locate(key)
        # ``node`` is the node whose neighbourhood must host ``key``.
        if node.label == key:
            if not node.data:
                self.filled_count += 1
            node.data.add(datum)
            return node

        if is_proper_prefix(node.label, key):
            # key belongs below ``node``; no child shares a longer prefix
            # (otherwise _locate would have descended) -> new leaf.
            child = node.child_towards(key)
            if child is None:
                leaf = self._new_node(key)
                node.add_child(leaf)
                leaf.data.add(datum)
                self.filled_count += 1
                return leaf
            # child shares >1 digit with key but neither prefixes the other,
            # or key prefixes child: split below node.
            return self._split(node, child, key, datum)

        if is_proper_prefix(key, node.label):
            # key must become an ancestor of ``node`` (Algorithm 3 lines
            # 3.10–3.20): insert between node and its parent (or as root).
            new = self._new_node(key)
            self._insert_above(node, new)
            new.data.add(datum)
            self.filled_count += 1
            return new

        # Neither prefixes the other (lines 3.21–3.31): create their common
        # parent labelled GCP(node.label, key) plus the key node.
        g = gcp(node.label, key)
        parent = node.parent
        if parent is not None and parent.label == g:
            leaf = self._new_node(key)
            parent.add_child(leaf)
            leaf.data.add(datum)
            self.filled_count += 1
            return leaf
        inner = self._new_node(g)
        self._insert_above(node, inner)
        leaf = self._new_node(key)
        inner.add_child(leaf)
        leaf.data.add(datum)
        self.filled_count += 1
        return leaf

    def insert_batch(self, pairs) -> int:
        """Register many ``(key, datum)`` pairs in one pass (``datum=None``
        registers the key itself, as in :meth:`insert`).

        The bulk-construction fast path of Algorithm 3: the batch is sorted
        lexicographically once, and a *cursor* — the root path of the
        previous insertion point — persists across iterations.  Because
        consecutive sorted keys share their longest common prefixes, each
        insertion pops the cursor to the deepest ancestor that still
        prefixes the new key and descends only the GCP delta, instead of
        paying a full root descent per key: amortised O(|key|) per key.

        A PGCP tree is canonical for its key set — insertion order never
        changes the final node set, edges or data — so this produces a tree
        identical to sequential :meth:`insert` calls in the caller's order
        (property-tested, including the total :attr:`version` advance);
        only the node-*creation* order within the batch differs (sorted,
        not caller order).  ``on_create`` hooks fire per created node as
        usual.  Returns the number of pairs applied.
        """
        items = [(key, key if datum is None else datum) for key, datum in pairs]
        if not items:
            return 0
        items.sort(key=itemgetter(0))
        # Cursor: the root path of the previous key's node.  Every non-root
        # entry properly prefixes the previous key, so after trimming, the
        # "key above node" / divergence cases can only involve the root.
        path: list[PGCPNode] = []
        if self.root is None:
            key, datum = items[0]
            node = self._new_node(key)
            self.root = node
            node.data.add(datum)
            self.filled_count += 1
            path.append(node)
            start = 1
        else:
            path.append(self.root)
            start = 0
        for key, datum in items[start:] if start else items:
            # Trim the cursor to the deepest ancestor prefixing ``key``.
            while len(path) > 1 and not key.startswith(path[-1].label):
                path.pop()
            node = path[-1]
            # Inlined _locate + insert, resumed from ``node`` (equivalent
            # to a root descent: every node prefixing ``key`` lies on one
            # root path, which the cursor preserved).
            while True:
                label = node.label
                if label == key:
                    if not node.data:
                        self.filled_count += 1
                    node.data.add(datum)
                    break
                if key.startswith(label):
                    child = node.children.get(key[len(label)]) if len(key) > len(label) else None
                    if child is None:
                        leaf = self._new_node(key)
                        node.add_child(leaf)
                        leaf.data.add(datum)
                        self.filled_count += 1
                        path.append(leaf)
                        break
                    cpl = common_prefix_len(child.label, key)
                    if cpl == len(child.label):
                        node = child
                        path.append(child)
                        continue
                    result = self._split(node, child, key, datum)
                    if result.parent is not node:
                        path.append(result.parent)  # divergence: inner GCP node
                    path.append(result)
                    break
                # ``node`` is the root (deeper cursor entries all prefix
                # ``key``): Algorithm 3's "key above" / divergence cases.
                if is_proper_prefix(key, label):
                    new = self._new_node(key)
                    self._insert_above(node, new)
                    new.data.add(datum)
                    self.filled_count += 1
                    del path[:]
                    path.append(new)  # ``new`` is the root now
                    break
                g = gcp(label, key)
                inner = self._new_node(g)
                self._insert_above(node, inner)
                leaf = self._new_node(key)
                inner.add_child(leaf)
                leaf.data.add(datum)
                self.filled_count += 1
                del path[:]
                path.append(inner)  # ``inner`` is the root now
                path.append(leaf)
                break
        return len(items)

    def _locate(self, key: str) -> PGCPNode:
        """Descend from the root towards ``key``; return the node where the
        insertion (or lookup) decision must be taken.

        The returned node ``p`` satisfies one of: ``p.label == key``;
        ``p.label`` properly prefixes ``key`` and no child of ``p`` both
        shares a longer prefix with ``key`` *and* properly prefixes it;
        or ``p`` is the deepest node whose label does not prefix ``key``
        (split needed at or above ``p``).
        """
        assert self.root is not None
        node = self.root
        while True:
            if node.label == key:
                return node
            if not is_proper_prefix(node.label, key):
                return node
            child = node.child_towards(key)
            if child is None:
                return node
            cpl = common_prefix_len(child.label, key)
            if cpl == len(child.label):
                node = child  # child prefixes key (possibly equals): descend
            else:
                return node  # split between child and key happens below node
        # unreachable

    def _split(self, parent: PGCPNode, child: PGCPNode, key: str, datum: object) -> PGCPNode:
        """Handle insertion of ``key`` that collides with ``child`` under
        ``parent``: either ``key`` prefixes ``child`` (key becomes the new
        intermediate node) or they diverge (a structural GCP node is made)."""
        cpl = common_prefix_len(child.label, key)
        assert cpl > len(parent.label), "split must share more than parent label"
        assert cpl < len(child.label), "_locate should have descended"
        if cpl == len(key):
            # key properly prefixes child: new node for key between them.
            new = self._new_node(key)
            parent.remove_child(child)
            parent.add_child(new)
            new.add_child(child)
            new.data.add(datum)
            self.filled_count += 1
            return new
        # true divergence: structural node labelled the common prefix.
        g = child.label[:cpl]
        inner = self._new_node(g)
        parent.remove_child(child)
        parent.add_child(inner)
        inner.add_child(child)
        leaf = self._new_node(key)
        inner.add_child(leaf)
        leaf.data.add(datum)
        self.filled_count += 1
        return leaf

    def _insert_above(self, node: PGCPNode, new: PGCPNode) -> None:
        """Splice ``new`` (whose label properly prefixes ``node.label``)
        between ``node`` and its parent; ``new`` becomes root if needed."""
        assert is_proper_prefix(new.label, node.label)
        parent = node.parent
        if parent is not None:
            assert is_proper_prefix(parent.label, new.label), (
                "new ancestor must sit strictly between parent and node"
            )
            parent.remove_child(node)
            parent.add_child(new)
        else:
            self.root = new
        new.add_child(node)

    def _new_node(self, label: str) -> PGCPNode:
        assert label not in self._by_label, f"node {label!r} already exists"
        node = PGCPNode(label)
        self._by_label[label] = node
        self.version += 1
        if self.on_create is not None:
            self.on_create(node)
        return node

    def _drop_node(self, node: PGCPNode) -> None:
        del self._by_label[node.label]
        self.version += 1
        if self.on_remove is not None:
            self.on_remove(node)

    # -- removal (extension; the paper does not specify deletion) -----------

    def remove(self, key: str, datum: object = None) -> bool:
        """Unregister ``datum`` (or all data when ``None``) from ``key``.

        Structural contraction: a now-empty leaf is pruned; an empty internal
        node left with a single child is contracted (child re-attached to the
        grandparent), keeping the PGCP invariant.  Returns whether anything
        was removed.  This is an extension — the paper leaves departure of
        services to future work — and is exercised by churn tests.
        """
        node = self._by_label.get(key)
        if node is None or not node.data:
            return False
        if datum is None:
            node.data.clear()
        elif datum in node.data:
            node.data.discard(datum)
        else:
            return False
        if not node.data:
            self.filled_count -= 1
        self._contract(node)
        return True

    def _contract(self, node: PGCPNode) -> None:
        """Prune/contract ``node`` upwards while it is structurally idle."""
        while node is not None and not node.data:
            parent = node.parent
            if not node.children:
                # empty leaf: prune (unless it is the only node left).
                if parent is None:
                    self.root = None
                    self._drop_node(node)
                    return
                parent.remove_child(node)
                self._drop_node(node)
                node = parent
            elif len(node.children) == 1:
                (child,) = node.children.values()
                if parent is None:
                    node.remove_child(child)
                    self.root = child
                    child.parent = None
                else:
                    node.remove_child(child)
                    parent.remove_child(node)
                    parent.add_child(child)
                self._drop_node(node)
                node = parent
            else:
                return

    # -- search primitives ---------------------------------------------------

    def scan_root(self, anchor: str, start: Optional[PGCPNode] = None) -> Optional[PGCPNode]:
        """The highest node under ``start`` (default: the root) whose label
        extends ``anchor`` — the root of the one subtree holding every key
        that extends it — or ``None`` when no such node exists.  Definition 1
        makes the descent digit unique, so the scan root is unique."""
        node = self.root if start is None else start
        while node is not None and not node.label.startswith(anchor):
            if not anchor.startswith(node.label):
                return None
            node = node.child_towards(anchor)
        return node

    @staticmethod
    def band(
        node: PGCPNode, lo: Optional[str] = None, hi: Optional[str] = None
    ) -> list[PGCPNode]:
        """Pre-order DFS of ``node``'s subtree, children in label order, so
        the nodes come out in lexicographic label order.  With ``lo`` /
        ``hi`` the walk is pruned to the ``[lo, hi]`` band: every key under
        a node extends its label, so a branch whose label is ``> hi``, or
        ``< lo`` without prefixing ``lo``, cannot hold a match."""
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            lbl = n.label
            if lo is not None and (lbl > hi or (lbl < lo and not lo.startswith(lbl))):
                continue
            out.append(n)
            if n.children:
                stack.extend(sorted(n.children.values(), key=lambda c: c.label, reverse=True))
        return out

    def complete(self, partial: str) -> list[str]:
        """Automatic completion: all registered keys having ``partial`` as a
        prefix, in lexicographic order (paper: "automatic completion of
        partial search strings")."""
        root = self.scan_root(partial)
        return [] if root is None else [n.label for n in self.band(root) if n.data]

    def range_query(self, lo: str, hi: str) -> list[str]:
        """All registered keys ``k`` with ``lo <= k <= hi`` (lexicographic),
        in order — every such key extends ``gcp(lo, hi)``, so the scan
        starts at that anchor's scan root and descends only branches
        overlapping the range."""
        if lo > hi:
            raise ValueError("range_query requires lo <= hi")
        root = self.scan_root(gcp(lo, hi))
        if root is None:
            return []
        return [n.label for n in self.band(root, lo, hi) if n.data and lo <= n.label <= hi]

    # -- invariants & rendering ---------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`AssertionError` when Definition 1 is violated."""
        if self.root is None:
            assert not self._by_label, "index non-empty but root is None"
            return
        assert self.root.parent is None, "root must have no parent"
        seen: set[str] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            assert node.label not in seen, f"duplicate label {node.label!r}"
            seen.add(node.label)
            assert self._by_label.get(node.label) is node, "index out of sync"
            digits = list(node.children.keys())
            assert len(set(digits)) == len(digits)
            kids = list(node.children.values())
            for digit, child in node.children.items():
                assert child.parent is node, f"broken parent link at {child.label!r}"
                assert is_proper_prefix(node.label, child.label), (
                    f"{node.label!r} not a proper prefix of child {child.label!r}"
                )
                assert child.label[len(node.label)] == digit, "child dict key wrong"
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    g = gcp(kids[i].label, kids[j].label)
                    assert g == node.label, (
                        f"children {kids[i].label!r}, {kids[j].label!r} share "
                        f"prefix {g!r} != parent {node.label!r} (Definition 1)"
                    )
            stack.extend(kids)
        assert seen == set(self._by_label), "index contains detached labels"
        filled = sum(1 for n in self._by_label.values() if n.data)
        assert filled == self.filled_count, (
            f"filled_count {self.filled_count} != {filled} filled nodes"
        )

    def render(self) -> str:
        """ASCII rendering (used by tests and the quickstart example)."""
        if self.root is None:
            return "(empty)"
        lines: list[str] = []

        def _walk(node: PGCPNode, depth: int) -> None:
            mark = "*" if node.data else "o"
            label = node.label if node.label else "ε"
            lines.append("  " * depth + f"{mark} {label}")
            for d in sorted(node.children):
                _walk(node.children[d], depth + 1)

        _walk(self.root, 0)
        return "\n".join(lines)
