"""Discovery-request routing through the PGCP tree.

Paper, Section 2 (*Architecture*): "When a discovery request sent by a client
enters the tree, on a random node, the request moves upward until reaching a
node whose subtree contains the requested node and then moves [downward] to
this node."

This module computes the *logical path* (sequence of node labels) of a
request; capacity accounting and physical-hop counting happen in
:class:`repro.dlpt.system.DLPTSystem`, which charges each visited node's
hosting peer.

Two resolution strategies coexist, one per request shape:

* :func:`route_path` — the straightforward walk (parent pointers upward,
  per-step child probes downward).  It is the semantic definition and
  serves every *single* request (:meth:`DLPTSystem.discover`), the
  ``transit`` accounting ablation (which must visit every node) and
  crash-damaged forests, where a request may enter a detached fragment.
* :class:`DiscoveryRouter` — the index behind *batches*
  (:meth:`DLPTSystem.discover_batch`); set queries walk the tree and read
  only its memoised fragment-root list.  It memoises,
  per key and guarded by the tree's structural version counter, the
  *spine* (the root-path chain of nodes whose labels prefix the key —
  where every downward phase ends), and per node, guarded additionally by
  the mapping's host-assignment version, the node's depth, its root-path
  peer-change count and its hosting peer.  A request then resolves with
  one prefix scan over the spine instead of re-walking the tree: the
  up-hop and peer-change totals follow arithmetically from the cached
  per-node counts, because both route legs lie on root paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.ids import common_prefix_len
from ..core.pgcp import PGCPTree


@dataclass(frozen=True)
class RoutePath:
    """The logical trajectory of one request.

    ``labels`` lists every node visited, entry first.  ``found`` is True when
    the final node's label equals the requested key (and, for discovery
    semantics, holds data — structural nodes are reported by the caller).
    """

    labels: list[str]
    found: bool

    @property
    def logical_hops(self) -> int:
        """Tree edges traversed (Figure 9's "Logical hops" series counts
        hops, so a request served by its entry node costs 0)."""
        return len(self.labels) - 1


def route_path(tree: PGCPTree, entry_label: str, key: str) -> RoutePath:
    """Compute the up-then-down path from ``entry_label`` towards ``key``.

    The upward phase climbs to the first ancestor whose label prefixes the
    key; the downward phase descends through children sharing ever longer
    prefixes.  If the key is absent, the path ends at the deepest node that
    would be its insertion neighbourhood and ``found`` is False.
    """
    node = tree.node(entry_label)
    if node is None:
        raise KeyError(f"entry node {entry_label!r} not in the tree")
    labels = [node.label]

    # -- upward phase -----------------------------------------------------
    while not key.startswith(node.label):
        parent = node.parent
        if parent is None:
            # Reached the root and it still does not prefix the key: the key
            # lies outside the tree's label band (only possible for keys
            # absent from the tree).
            return RoutePath(labels=labels, found=False)
        node = parent
        labels.append(node.label)

    # -- downward phase -----------------------------------------------------
    while node.label != key:
        child = node.child_towards(key)
        if child is None:
            return RoutePath(labels=labels, found=False)
        if common_prefix_len(child.label, key) < len(child.label):
            # The child diverges from the key before its own label ends (or
            # the key is a proper prefix of it): the key, if it existed,
            # would sit between node and child.
            return RoutePath(labels=labels, found=False)
        node = child
        labels.append(node.label)

    return RoutePath(labels=labels, found=True)


@dataclass(frozen=True)
class RequestOutcome:
    """Result of executing a discovery request against the live system."""

    key: str
    satisfied: bool
    found: bool
    logical_hops: int
    physical_hops: int
    dropped_at: Optional[str] = None

    @property
    def dropped(self) -> bool:
        return self.dropped_at is not None


@dataclass
class BatchOutcome:
    """Aggregated counters of one batch of discovery requests.

    The hop totals and the histogram cover *satisfied* requests only,
    mirroring how :class:`repro.experiments.metrics.UnitStats` accounts
    them; per-request outcome objects are never materialised."""

    issued: int = 0
    satisfied: int = 0
    dropped: int = 0
    not_found: int = 0
    logical_hops: int = 0
    physical_hops: int = 0
    #: hops → number of satisfied requests taking that many logical hops.
    hop_histogram: Dict[int, int] = field(default_factory=dict)


#: Cached per-node route constants: ``(depth, root-path peer changes,
#: hosting peer, fragment-root label)``.
_NodeInfo = Tuple[int, int, object, str]


class DiscoveryRouter:
    """Version-guarded route index over one tree + mapping pair.

    ``spine(key)`` is the chain of nodes whose labels prefix ``key``; in a
    PGCP tree they form a parent-child chain starting at the root (a label
    prefixing ``key`` forces every shallower prefix — in particular the
    root's — to prefix it too), and every discovery route is *up the entry's
    root path to the deepest spine node prefixing the entry, then down the
    spine to its end*.  With per-node ``(depth, root-path peer-change
    count)`` cached, hop counts reduce to three lookups and subtractions.

    Cache validity: spines depend only on tree structure and are guarded by
    :attr:`PGCPTree.version`; node info additionally depends on the host
    assignment and is guarded by the mapping's ``version`` counter.  A
    mapping without a counter (a custom strategy) degrades safely: node
    info is recomputed on every :meth:`sync`.
    """

    __slots__ = ("tree", "mapping", "_tree_version", "_map_version",
                 "_spines", "_info", "_fragments",
                 "_warmed", "_spines_warmed",
                 "served_since_invalidate", "batches_since_invalidate")

    def __init__(self, tree: PGCPTree, mapping) -> None:
        self.tree = tree
        self.mapping = mapping
        self._tree_version = -1
        self._map_version: object = object()  # never equal until first sync
        #: key -> (spine labels, found)
        self._spines: Dict[str, Tuple[tuple, bool]] = {}
        self._info: Dict[str, _NodeInfo] = {}
        #: Labels of all fragment roots (parentless nodes) — length 1 on a
        #: healthy tree, more after crash damage; None until first use.
        self._fragments: Optional[Tuple[str, ...]] = None
        self._warmed = False
        self._spines_warmed = False
        #: Requests served since the node-info cache was last invalidated —
        #: the signal deciding when a bulk :meth:`warm` pays for itself.
        self.served_since_invalidate = 0
        #: Batches served since the last invalidation: once one full batch
        #: boundary passes without a version change, the platform is stable
        #: (a flood or scenario loop, not a churning run) and bulk warming
        #: amortises over every remaining batch.
        self.batches_since_invalidate = 0

    def sync(self) -> None:
        """Drop whatever the structural/mapping version counters invalidate.
        Call once before a request (or once per batch — nothing inside a
        batch mutates the tree or the mapping)."""
        tv = self.tree.version
        mv = getattr(self.mapping, "version", None)
        if tv != self._tree_version:
            self._spines.clear()
            self._info.clear()
            self._fragments = None
            self._tree_version = tv
            self._map_version = mv
            self._warmed = False
            self._spines_warmed = False
            self.served_since_invalidate = 0
            self.batches_since_invalidate = 0
        elif mv is None or mv != self._map_version:
            self._info.clear()
            self._map_version = mv
            self._warmed = False
            self.served_since_invalidate = 0
            self.batches_since_invalidate = 0

    # -- cached lookups ----------------------------------------------------

    def spine(self, key: str) -> Tuple[tuple, bool]:
        """``(labels, found)`` of the key's spine; an empty tuple when the
        root does not prefix the key (the upward phase then dead-ends at
        the root)."""
        s = self._spines.get(key)
        if s is None:
            s = self._build_spine(key)
            self._spines[key] = s
        return s

    def _build_spine(self, key: str) -> Tuple[tuple, bool]:
        root = self.tree.root
        if root is None or not key.startswith(root.label):
            return ((), False)
        node = root
        label = root.label
        labels = [label]
        # Single pass over the key: each child label is verified by one
        # ``startswith`` (no per-step GCP recomputation), and the branch
        # digit probe is a dict lookup, never a child scan.
        while label != key:
            child = node.children.get(key[len(label)])
            if child is None:
                break
            clabel = child.label
            if not key.startswith(clabel):
                break
            node = child
            label = clabel
            labels.append(label)
        return tuple(labels), label == key

    def warm(self) -> None:
        """Bulk-populate the caches for the root's fragment in one DFS —
        one cheap pass instead of thousands of lazy ancestor walks.  Worth
        it when a batch is about to touch a sizable share of the tree;
        orphan fragments (crash damage) stay lazy.

        The same pass pre-builds the spine of every tree label: for a key
        that *is* a label, the spine is exactly its root path (every
        ancestor's label prefixes it, and no other node can), so a flood
        of registered-key requests starts with a fully warm spine memo.
        Idempotent per invalidation epoch (lazily cached entries are
        overwritten with identical values); callers :meth:`sync` first."""
        root = self.tree.root
        if root is None or self._warmed:
            return
        self._warmed = True
        host_of = self.mapping.host_of
        info = self._info
        spines = None if self._spines_warmed else self._spines
        self._spines_warmed = True
        root_label = root.label
        root_peer = host_of(root_label)
        info[root_label] = (0, 0, root_peer, root_label)
        root_spine = (root_label,)
        if spines is not None:
            spines[root_label] = (root_spine, True)
        stack = [(root, 0, 0, root_peer, root_spine)]
        while stack:
            node, depth, changes, peer, path = stack.pop()
            depth += 1
            for child in node.children.values():
                lbl = child.label
                p = host_of(lbl)
                r = changes + (p is not peer)
                info[lbl] = (depth, r, p, root_label)
                child_path = path + (lbl,)
                if spines is not None:
                    spines[lbl] = (child_path, True)
                if child.children:
                    stack.append((child, depth, r, p, child_path))

    def node_info(self, label: str) -> _NodeInfo:
        """``(depth, root-path peer changes, hosting peer, fragment root)``
        of ``label``, memoised along the whole ancestor chain."""
        info = self._info.get(label)
        if info is not None:
            return info
        node = self.tree.node(label)
        if node is None:
            raise KeyError(f"entry node {label!r} not in the tree")
        chain = []
        depth, changes, peer, root_label = -1, 0, None, label
        while True:
            cached = self._info.get(node.label)
            if cached is not None:
                depth, changes, peer, root_label = cached
                break
            chain.append(node)
            if node.parent is None:
                root_label = node.label
                break
            node = node.parent
        host_of = self.mapping.host_of
        info_map = self._info
        for n in reversed(chain):
            p = host_of(n.label)
            depth += 1
            if peer is not None and p is not peer:
                changes += 1
            peer = p
            info_map[n.label] = (depth, changes, peer, root_label)
        return info_map[label]

    # -- set queries -------------------------------------------------------

    def fragment_roots(self) -> Tuple[str, ...]:
        """Sorted labels of all parentless nodes — exactly one on a healthy
        tree, several while crash damage leaves orphan fragments.  Memoised
        per tree version (crash surgery bumps it per lost node, so damage
        always invalidates)."""
        frags = self._fragments
        if frags is None:
            frags = tuple(sorted(
                n.label for n in self.tree.nodes() if n.parent is None
            ))
            self._fragments = frags
        return frags


@dataclass(frozen=True)
class QueryOutcome:
    """Result of one set query (completion / range / multi-attribute)
    against the live system.

    ``results`` is the complete sorted answer — the macro model has global
    knowledge, so capacity exhaustion degrades *satisfaction*, never
    completeness (``dropped_at`` names the first exhausted host).  Hop
    accounting: ``logical_hops`` = the entry's walk to its scan root (or
    dead end) + scan forwards (visited nodes minus one per scanned
    fragment) + one jump per scanned fragment after the first;
    ``physical_hops`` counts the walk and scan hops whose endpoints live
    on different peers, plus the same jumps.
    """

    query: str
    results: Tuple[str, ...]
    satisfied: bool
    logical_hops: int
    physical_hops: int
    nodes_scanned: int
    dropped_at: Optional[str] = None

    @property
    def dropped(self) -> bool:
        return self.dropped_at is not None


@dataclass
class QueryBatchOutcome:
    """Aggregated counters of one batch of set queries — the count-dict
    mirror of :class:`BatchOutcome` for :meth:`DLPTSystem.search_batch`.

    The hop totals and histogram cover satisfied queries only, matching
    how request hops feed :class:`repro.experiments.metrics.UnitStats`."""

    issued: int = 0
    satisfied: int = 0
    dropped: int = 0
    results_total: int = 0
    logical_hops: int = 0
    physical_hops: int = 0
    #: hops → number of satisfied queries taking that many logical hops.
    hop_histogram: Dict[int, int] = field(default_factory=dict)

    def absorb(self, outcome: QueryOutcome) -> None:
        self.issued += 1
        self.results_total += len(outcome.results)
        if outcome.dropped_at is not None:
            self.dropped += 1
            return
        self.satisfied += 1
        self.logical_hops += outcome.logical_hops
        self.physical_hops += outcome.physical_hops
        h = outcome.logical_hops
        self.hop_histogram[h] = self.hop_histogram.get(h, 0) + 1
