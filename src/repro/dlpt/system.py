"""The live DLPT system: ring + PGCP tree + mapping + request execution.

This is the *macro* (time-unit level) model used by all experiments.  It
keeps the distributed system's global state — the peer ring, the logical
tree, and the node→peer mapping — and executes the operations the paper's
simulation performs each time unit: peer joins/leaves, service registration
(tree growth), discovery requests with per-peer capacity accounting, and
load-balancing hooks.

The message-level protocols (Algorithms 1–3) are implemented separately in
:mod:`repro.dlpt.protocol` and validated (property-based) to produce exactly
the state transitions this class performs atomically.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.alphabet import PRINTABLE, Alphabet
from ..core.ids import gcp
from ..core.pgcp import PGCPTree
from ..core.queries import (
    ExactQuery,
    MultiAttributeQuery,
    PrefixQuery,
    RangeQuery,
    parse_query,
)
from ..peers.capacity import CapacityModel, UniformCapacity
from ..peers.peer import Peer
from ..peers.ring import Ring
from ..util.sortedlist import SortedList
from .mapping import LexicographicMapping
from .routing import (
    BatchOutcome,
    DiscoveryRouter,
    QueryBatchOutcome,
    QueryOutcome,
    RequestOutcome,
    route_path,
)

#: Default length of randomly drawn peer identifiers.  Long enough that
#: collisions among ~10^4 peers are negligible for any alphabet size >= 2.
DEFAULT_PEER_ID_LENGTH = 24


class DLPTSystem:
    """Global state of one DLPT deployment.

    Parameters
    ----------
    alphabet:
        Digit alphabet shared by peer identifiers and node labels.
    capacity_model:
        Distribution of per-peer capacities (requests per time unit).
    mapping_factory:
        Callable ``ring -> mapping``; defaults to the paper's lexicographic
        mapping.  The Figure 9 baseline passes the hashed mapping instead.
    peer_id_length:
        Length of randomly generated peer identifiers.
    peer_id_sampler:
        Optional callable ``rng -> str`` drawing peer identifiers.  Peers
        and nodes share one identifier space (Section 3), so deployments
        typically draw peer ids from the same namespace as the service
        keys; :func:`corpus_peer_id_sampler` builds such a sampler.  When
        ``None``, identifiers are uniform random digit strings.
    """

    def __init__(
        self,
        *,
        alphabet: Alphabet = PRINTABLE,
        capacity_model: CapacityModel | None = None,
        mapping_factory=None,
        peer_id_length: int = DEFAULT_PEER_ID_LENGTH,
        peer_id_sampler=None,
    ) -> None:
        self.alphabet = alphabet
        self.capacity_model = capacity_model or UniformCapacity()
        self.peer_id_length = peer_id_length
        self.peer_id_sampler = peer_id_sampler
        self.ring = Ring()
        self.tree = PGCPTree()
        self.mapping = (
            mapping_factory(self.ring) if mapping_factory else LexicographicMapping(self.ring)
        )
        self.tree.on_create = lambda node: self.mapping.on_node_created(node.label)
        self.tree.on_remove = lambda node: self.mapping.on_node_removed(node.label)
        #: All node labels, sorted — uniform random entry-node selection.
        self.node_index: SortedList[str] = SortedList()
        self.tree_on_create_chain()
        #: Route index behind batches (version-guarded spine/hop caches);
        #: set queries read only its fragment-root list.
        self.router = DiscoveryRouter(self.tree, self.mapping)
        #: Aggregated per-node request counts of the last closed time unit
        #: (the ``l_n`` that MLT and KC consume).
        self.last_unit_load: Dict[str, int] = {}
        self.time_unit = 0

    def tree_on_create_chain(self) -> None:
        """Chain node-index maintenance onto the tree hooks (kept separate
        so subclasses/baselines can re-wire mapping hooks cleanly).

        When the mapping maintains its own sorted label index (the
        lexicographic mapping's migration index), alias it instead of
        paying a second O(n) sorted insert per node creation.
        """
        shared = getattr(self.mapping, "label_index", None)
        if isinstance(shared, SortedList):
            self.node_index = shared
            return
        mapping_create = self.tree.on_create
        mapping_remove = self.tree.on_remove

        def _on_create(node) -> None:
            mapping_create(node)
            self.node_index.add(node.label)

        def _on_remove(node) -> None:
            mapping_remove(node)
            self.node_index.remove(node.label)

        self.tree.on_create = _on_create
        self.tree.on_remove = _on_remove

    # -- peer membership ---------------------------------------------------

    def random_peer_id(self, rng) -> str:
        """Draw a fresh (non-colliding) random peer identifier."""
        while True:
            if self.peer_id_sampler is not None:
                pid = self.peer_id_sampler(rng)
            else:
                pid = self.alphabet.random_identifier(rng, self.peer_id_length)
            if pid not in self.ring:
                return pid

    def add_peer(
        self,
        rng,
        peer_id: Optional[str] = None,
        capacity: Optional[int] = None,
    ) -> Peer:
        """Join a peer at ``peer_id`` (random when ``None``) and migrate the
        node interval it takes over from its successor."""
        random_id = peer_id is None
        if peer_id is None:
            peer_id = self.random_peer_id(rng)
        elif peer_id in self.ring:
            raise ValueError(f"peer id {peer_id!r} already on the ring")
        if capacity is None:
            capacity = self.capacity_model.sample(rng)
        while True:
            peer = Peer(id=peer_id, capacity=capacity)
            self.ring.join(peer)
            try:
                self.mapping.on_peer_joined(peer)
            except ValueError:
                # Hash-position collision under the DHT mapping: retry with a
                # fresh identifier when we chose it; surface caller choices.
                self.ring.leave(peer_id)
                if not random_id:
                    raise
                peer_id = self.random_peer_id(rng)
                continue
            return peer

    def remove_peer(self, peer_id: str) -> Peer:
        """Graceful leave: nodes migrate to the successor, then the peer
        departs the ring."""
        peer = self.ring.peer(peer_id)
        if len(self.ring) == 1 and peer.nodes:
            raise RuntimeError("cannot remove the last peer while the tree exists")
        self.mapping.on_peer_leaving(peer)
        self.ring.leave(peer_id)
        return peer

    def add_peers(
        self,
        rng,
        n_peers: Optional[int] = None,
        capacities=None,
        peer_ids=None,
    ) -> list[Peer]:
        """Join a batch of peers with one sorted ring merge — the bulk twin
        of repeated :meth:`add_peer` calls (the ``ChordRing.add_peers``
        idiom applied to the live ring).

        Identifiers (when ``peer_ids`` is ``None``) and capacities (when
        ``capacities`` is ``None``) are drawn from ``rng`` in the same
        per-peer order as the sequential loop, so both paths consume the
        RNG stream identically and build the same platform.  The bulk merge
        only applies while the mapping holds no labels (bootstrap: joins
        migrate nothing) under a mapping with deferred placement; otherwise
        — mid-life joins, the frozen seed mapping, the DHT baseline — it
        falls back to per-peer :meth:`add_peer`, which preserves
        interval-migration (and hash-collision-retry) semantics.
        """
        if peer_ids is not None:
            if n_peers is None:
                n_peers = len(peer_ids)
            elif n_peers != len(peer_ids):
                raise ValueError("n_peers disagrees with len(peer_ids)")
        elif n_peers is None:
            raise ValueError("need n_peers or peer_ids")
        if capacities is not None and len(capacities) != n_peers:
            raise ValueError("capacities must match the batch size")
        mapping = self.mapping
        bulk = getattr(mapping, "place_batch", None) is not None and not mapping.host
        if not bulk:
            return [
                self.add_peer(
                    rng,
                    peer_id=peer_ids[i] if peer_ids is not None else None,
                    capacity=capacities[i] if capacities is not None else None,
                )
                for i in range(n_peers)
            ]
        ring = self.ring
        batch_ids: set[str] = set()
        peers: list[Peer] = []
        sample = self.capacity_model.sample
        for i in range(n_peers):
            if peer_ids is not None:
                pid = peer_ids[i]
                if pid in ring or pid in batch_ids:
                    raise ValueError(f"peer id {pid!r} already on the ring")
            else:
                # Same rejection rule as the sequential loop: earlier batch
                # members count as "on the ring" for collision purposes.
                while True:
                    if self.peer_id_sampler is not None:
                        pid = self.peer_id_sampler(rng)
                    else:
                        pid = self.alphabet.random_identifier(rng, self.peer_id_length)
                    if pid not in ring and pid not in batch_ids:
                        break
            batch_ids.add(pid)
            capacity = capacities[i] if capacities is not None else sample(rng)
            peers.append(Peer(id=pid, capacity=capacity))
        ring.join_many(peers)
        # No labels are mapped, so no interval migrates; the joins still
        # count as one host-assignment epoch for the router's caches.
        mapping.version += 1
        return peers

    def build(self, rng, n_peers: int) -> None:
        """Bootstrap a platform of ``n_peers`` peers (before any services)."""
        self.add_peers(rng, n_peers)

    # -- service registration -----------------------------------------------

    def register(self, key: str, datum: object = None) -> None:
        """Register a service key (Algorithm 3's outcome): the tree grows
        and any created node is immediately mapped onto a peer."""
        if len(self.ring) == 0:
            raise RuntimeError("cannot register services on an empty ring")
        self.alphabet.validate(key)
        self.tree.insert(key, datum)

    def register_batch(self, keys) -> int:
        """Register many service keys in one batched pass (each key its own
        datum, exactly as per-key :meth:`register`)."""
        return self.register_pairs([(key, None) for key in keys])

    def register_pairs(self, pairs) -> int:
        """Register ``(key, datum)`` pairs through the bulk construction
        fast path: one sorted :meth:`~repro.core.pgcp.PGCPTree.insert_batch`
        cursor walk plus one deferred mapping placement pass over every
        node the batch created, instead of a hook-driven placement per
        node.  The final tree/mapping/index state is identical to per-key
        :meth:`register` calls (property-tested); mappings without a
        ``place_batch`` hook (the frozen seed reference, the DHT baseline)
        fall back to the sequential loop.  Returns the number of pairs.
        """
        if len(self.ring) == 0:
            raise RuntimeError("cannot register services on an empty ring")
        pairs = list(pairs)
        if not pairs:
            return 0
        self.alphabet.validate_many([key for key, _ in pairs])
        place = getattr(self.mapping, "place_batch", None)
        if place is None:
            insert = self.tree.insert
            for key, datum in pairs:
                insert(key, datum)
            return len(pairs)
        tree = self.tree
        created: list[str] = []
        hooked_on_create = tree.on_create
        tree.on_create = lambda node: created.append(node.label)
        try:
            tree.insert_batch(pairs)
        finally:
            tree.on_create = hooked_on_create
        place(created)
        if self.node_index is not getattr(self.mapping, "label_index", None):
            # Unaliased entry-node index (a mapping with deferred placement
            # but its own label bookkeeping): merge the batch once.
            self.node_index.update(created)
        return len(pairs)

    def unregister(self, key: str, datum: object = None) -> bool:
        """Remove a service registration (extension; contracts the tree)."""
        return self.tree.remove(key, datum)

    # -- discovery -------------------------------------------------------------

    def random_entry_label(self, rng) -> str:
        """Uniformly random tree node — where a client's request enters."""
        n = len(self.node_index)
        if n == 0:
            raise RuntimeError("tree is empty; no entry node")
        return self.node_index[rng.randrange(n)]

    def random_entry_labels(self, rng, count: int) -> list[str]:
        """``count`` uniformly random entry nodes — the bulk twin of
        :meth:`random_entry_label`, consuming the RNG stream identically
        (one ``randrange`` per draw) with the index bound once."""
        n = len(self.node_index)
        if n == 0:
            raise RuntimeError("tree is empty; no entry node")
        items = self.node_index.raw()
        randrange = rng.randrange
        return [items[randrange(n)] for _ in range(count)]

    def discover(
        self,
        key: str,
        entry_label: Optional[str] = None,
        rng=None,
        accounting: str = "destination",
    ) -> RequestOutcome:
        """Execute one discovery request with capacity accounting.

        A request is satisfied when it reaches the node owning ``key``
        ("A request is said to be satisfied if it reaches its final
        destination") and the responsible peer still has capacity ("All
        requests received on a peer after it reached this number are
        ignored").  Two accounting models are provided:

        ``"destination"`` (default)
            A request charges only the peer hosting its destination node —
            the model under which the paper's pair-throughput objective
            ``T = min(L_S, C_S) + min(L_P, C_P)`` is exact (every request
            is processed by exactly one node, so the satisfied count of a
            peer is precisely ``min(load, capacity)``).

        ``"transit"``
            Every node visited along the route charges its hosting peer;
            a request dropped mid-route is unsatisfied.  This ablation
            model makes the peers hosting upper tree nodes ("the upper a
            node is, the more times it will be visited") a hard bottleneck
            and is exercised by the ablation benches.

        The route is walked (:func:`~repro.dlpt.routing.route_path`) under
        both models and on damaged forests alike; the route index serves
        batches (:meth:`discover_batch`).
        """
        if accounting not in ("destination", "transit"):
            raise ValueError(f"unknown accounting model {accounting!r}")
        if entry_label is None:
            if rng is None:
                raise ValueError("need rng when entry_label is not given")
            entry_label = self.random_entry_label(rng)
        return self._discover_walk(
            key, entry_label, charge_transit=accounting == "transit"
        )

    def _discover_walk(
        self, key: str, entry_label: str, charge_transit: bool
    ) -> RequestOutcome:
        """The walking resolver: visits every node on the route.  Serves
        every single request, ``transit`` accounting (which must charge
        each visited peer) and damaged-forest entries the batch index
        cannot cover."""
        path = route_path(self.tree, entry_label, key)
        host_of = self.mapping.host_of

        physical_hops = 0
        prev_peer = None
        last = len(path.labels) - 1
        for i, label in enumerate(path.labels):
            peer = host_of(label)
            if prev_peer is not None and peer is not prev_peer:
                physical_hops += 1
            if charge_transit or i == last:
                if not peer.try_process(label):
                    return RequestOutcome(
                        key=key,
                        satisfied=False,
                        found=False,
                        logical_hops=i,
                        physical_hops=physical_hops,
                        dropped_at=peer.id,
                    )
            prev_peer = peer
        return RequestOutcome(
            key=key,
            satisfied=path.found,
            found=path.found,
            logical_hops=path.logical_hops,
            physical_hops=physical_hops,
        )

    def discover_batch(
        self,
        pairs,
        accounting: str = "destination",
        skip_missing_entries: bool = False,
    ) -> BatchOutcome:
        """Serve a batch of ``(key, entry_label)`` requests and return the
        aggregated counters — the per-unit hot loop of the experiment
        runner and the flood benchmarks.

        Requests are charged strictly in the given order (capacity
        exhaustion depends on it), but routing work is shared: the router
        syncs once for the whole batch and repeated keys hit the spine
        memo, so no per-request outcome objects or route walks remain.
        ``skip_missing_entries`` counts a pair whose entry node no longer
        exists as an unsatisfied lookup instead of raising — the replay
        semantics for traces recorded on a differently-repaired tree.
        """
        if accounting not in ("destination", "transit"):
            raise ValueError(f"unknown accounting model {accounting!r}")
        out = BatchOutcome()
        transit = accounting == "transit"
        router = self.router
        router.sync()
        n_nodes = len(self.tree._by_label)
        served = router.served_since_invalidate
        router.served_since_invalidate = served + len(pairs)
        stable = router.batches_since_invalidate
        router.batches_since_invalidate = stable + 1
        if (
            not transit
            and len(pairs) >= 32
            and (stable or 4 * (served + len(pairs)) >= n_nodes)
        ):
            # The cache's current epoch will serve a sizable share of the
            # tree — a big batch, or a stable platform (a full batch
            # boundary passed with no invalidation): one bulk DFS beats
            # thousands of lazy ancestor walks.
            router.warm()
        # Hot-loop hoists: local counters and direct cache probes (the
        # router's memo dicts), falling back to the building methods only
        # on a miss.  Nothing inside the loop mutates tree or mapping, so
        # the single sync above covers the whole batch.  The destination
        # charge inlines Peer.try_process (same semantics: the node's
        # popularity is recorded even when the peer is exhausted).
        hist = out.hop_histogram
        issued = len(pairs)
        satisfied = dropped = not_found = 0
        logical_total = physical_total = 0
        spines = router._spines
        info_get = router._info.get
        spine_get = spines.get
        node_info = router.node_info
        build_spine = router._build_spine
        node_of = self.tree.node
        root = self.tree.root
        root_label = root.label if root is not None else None
        for key, entry in pairs:
            if skip_missing_entries and node_of(entry) is None:
                not_found += 1
                continue
            if transit:
                e_info = None
            else:
                e_info = info_get(entry)
                if e_info is None:
                    e_info = node_info(entry)
            if e_info is None or e_info[3] != root_label:
                # Transit accounting, or an entry outside the root's
                # fragment (crash-damaged forest): walk the full route.
                outcome = self._discover_walk(key, entry, charge_transit=transit)
                if outcome.satisfied:
                    satisfied += 1
                    logical = outcome.logical_hops
                    logical_total += logical
                    physical_total += outcome.physical_hops
                    hist[logical] = hist.get(logical, 0) + 1
                elif outcome.dropped:
                    dropped += 1
                else:
                    not_found += 1
                continue
            s = spine_get(key)
            if s is None:
                s = build_spine(key)
                spines[key] = s
            labels, found = s
            if labels:
                dest = labels[-1]
                d_info = info_get(dest)
                if d_info is None:
                    d_info = node_info(dest)
                dest_peer = d_info[2]
            else:
                dest = root_label
                found = False
                d_info = info_get(dest)
                if d_info is None:
                    d_info = node_info(dest)
                dest_peer = d_info[2]
            # Destination charge (Peer.try_process, inlined).
            node_load = dest_peer.node_load
            node_load[dest] = node_load.get(dest, 0) + 1
            if dest_peer.used >= dest_peer.capacity:
                dest_peer.total_rejected += 1
                dropped += 1
                continue
            dest_peer.used += 1
            dest_peer.total_processed += 1
            if not found:
                not_found += 1
                continue
            satisfied += 1
            # Hop arithmetic only for satisfied requests — the runner
            # discards hop counts of dropped/unfound outcomes anyway.
            # Join = deepest spine node prefixing the entry.  Spine
            # prefixes are nested, so the predicate is monotone down the
            # chain; random entries rarely share more than the root, so a
            # forward ``startswith`` scan beats a GCP plus binary search.
            j = 0
            last = len(labels) - 1
            while j < last and entry.startswith(labels[j + 1]):
                j += 1
            logical = (e_info[0] - j) + (last - j)
            if j:
                j_info = info_get(labels[j])
                if j_info is None:
                    j_info = node_info(labels[j])
                physical = (e_info[1] - j_info[1]) + (d_info[1] - j_info[1])
            else:
                physical = e_info[1] + d_info[1]
            logical_total += logical
            physical_total += physical
            hist[logical] = hist.get(logical, 0) + 1
        out.issued = issued
        out.satisfied = satisfied
        out.dropped = dropped
        out.not_found = not_found
        out.logical_hops = logical_total
        out.physical_hops = physical_total
        return out

    # -- set queries (completion / range / multi-attribute) ---------------------

    def search(self, query, entry_label: Optional[str] = None, rng=None) -> QueryOutcome:
        """Execute one set query (prefix completion, lexicographic range,
        exact, or multi-attribute conjunction) through the routed path.

        ``query`` may be a query object or any spec :func:`parse_query`
        accepts; validation against the system alphabet happens here, so
        executors never see a malformed query.  The query walks the tree
        exactly as the engine's scan token does: from the entry node to
        the scan root of the query band's anchor (the prefix itself, or
        the GCP of the range bounds), then over the band below it —
        charging every *scanned* node's host, one logical hop per scan
        forward.  On a crash-damaged forest the same walk goes on to scan
        every other fragment's band (one extra jump each), so the answer
        stays complete (:meth:`_execute_single`).

        ``results`` is always the full sorted answer over the registered
        key set — capacity exhaustion affects ``satisfied``/``dropped_at``
        only.  With neither ``entry_label`` nor ``rng`` the query enters at
        the first scan root (zero routing hops); a multi-attribute query
        draws a fresh entry per clause when given only ``rng``.
        """
        query = parse_query(query, self.alphabet)
        if isinstance(query, MultiAttributeQuery):
            return self._search_multi(query, entry_label, rng)
        outcome, _ = self._execute_single(query, entry_label, rng)
        return outcome

    def search_batch(self, items) -> QueryBatchOutcome:
        """Serve a batch of ``(query, entry_label)`` set queries; returns
        the aggregated :class:`QueryBatchOutcome` counters (the count-dict
        twin of :meth:`discover_batch` — per-query outcomes are absorbed,
        never kept).  ``entry_label`` of ``None`` enters at the first scan
        root."""
        out = QueryBatchOutcome()
        for query, entry_label in items:
            out.absorb(self.search(query, entry_label=entry_label))
        return out

    @staticmethod
    def _query_band(query):
        """``(anchor, lo, hi)`` of a single query's label band; a ``None``
        band means prefix mode (everything under the anchor matches)."""
        if isinstance(query, PrefixQuery):
            return query.prefix, None, None
        if isinstance(query, RangeQuery):
            return gcp(query.lo, query.hi), query.lo, query.hi
        if isinstance(query, ExactQuery):
            return query.key, query.key, query.key
        raise TypeError(f"unsupported query type {type(query).__name__}")

    def _search_multi(self, query, entry_label, rng) -> QueryOutcome:
        """Conjunction: one routed scan per rebased ``attr=value`` clause,
        intersecting the primary names stored as data; hop and scan totals
        sum over the clauses (they are independent sub-requests)."""
        names: Optional[set] = None
        logical = physical = scanned = 0
        dropped_at = None
        for _attr, sub in sorted(query.attribute_queries().items()):
            outcome, data = self._execute_single(sub, entry_label, rng)
            logical += outcome.logical_hops
            physical += outcome.physical_hops
            scanned += outcome.nodes_scanned
            if dropped_at is None:
                dropped_at = outcome.dropped_at
            matched = {d for d in data if isinstance(d, str)}
            names = matched if names is None else (names & matched)
        return QueryOutcome(
            query=query.describe(),
            results=tuple(sorted(names or ())),
            satisfied=dropped_at is None,
            logical_hops=logical,
            physical_hops=physical,
            nodes_scanned=scanned,
            dropped_at=dropped_at,
        )

    def _execute_single(self, query, entry_label, rng):
        """Run one single-attribute query; returns ``(QueryOutcome,
        union-of-data of matched nodes)`` (the data feed multi-attribute
        intersection).

        One walk serves healthy trees and crash-damaged forests alike.  In
        the entry's fragment the token follows the engine's phase-0 rule
        (:meth:`_walk_to_band`); where that fragment has no scan root it
        dies on the spot and that node's host is charged.  Then every
        fragment's scan root is scanned in fragment order, each scan after
        the first one jump (one logical and one physical hop) away, so
        orphaned keys still appear in the answer.  Without an entry the
        query starts at the first scan root."""
        anchor, lo, hi = self._query_band(query)
        tree = self.tree
        router = self.router
        router.sync()
        fragments = router.fragment_roots()
        if not fragments:
            return QueryOutcome(query.describe(), (), True, 0, 0, 0), set()
        if entry_label is None and rng is not None:
            entry_label = self.random_entry_label(rng)
        host_of = self.mapping.host_of
        logical = physical = 0
        dropped_at = None
        if entry_label is not None:
            path, reached = self._walk_to_band(entry_label, anchor)
            peers = [host_of(label) for label in path]
            logical = len(path) - 1
            physical = sum(a is not b for a, b in zip(peers, peers[1:]))
            if not reached and not peers[-1].try_process(path[-1]):
                dropped_at = peers[-1].id

        matches = query.matches
        results: list[str] = []
        data: set = set()
        scanned = 0
        roots = (tree.scan_root(anchor, tree.node(f)) for f in fragments)
        for jump, root in enumerate(r for r in roots if r is not None):
            # One logical hop per scan forward; a physical hop whenever
            # consecutive visits change peers.
            visited = tree.band(root, lo, hi)
            scanned += len(visited)
            logical += max(0, len(visited) - 1) + (jump > 0)
            physical += jump > 0
            prev_peer = None
            for node in visited:
                label = node.label
                peer = host_of(label)
                if prev_peer is not None and peer is not prev_peer:
                    physical += 1
                prev_peer = peer
                if not peer.try_process(label) and dropped_at is None:
                    dropped_at = peer.id
                if node.data and matches(label):
                    results.append(label)
                    data.update(node.data)
        return QueryOutcome(
            query=query.describe(),
            results=tuple(sorted(results)),
            satisfied=dropped_at is None,
            logical_hops=logical,
            physical_hops=physical,
            nodes_scanned=scanned,
            dropped_at=dropped_at,
        ), data

    def _walk_to_band(self, entry_label: str, anchor: str):
        """The engine's phase-0 route (:meth:`ProtocolEngine._on_set_query`)
        from ``entry_label`` inside its fragment: ``(visited labels,
        reached)``.  Outside the band the token climbs; above it, it
        descends the anchor's spine; inside it, it climbs to the highest
        node that extends the anchor — the fragment's scan root, where the
        walk ends with ``reached`` True.  It ends with ``reached`` False
        where the token dies: a fragment root that diverges from the
        anchor, or a spine node with no band-compatible child."""
        node = self.tree.node(entry_label)
        if node is None:
            raise KeyError(f"entry node {entry_label!r} not in the tree")
        path = [entry_label]
        while True:
            label = node.label
            if label.startswith(anchor):  # inside the band
                nxt = node.parent
                if nxt is None or not nxt.label.startswith(anchor):
                    return path, True
            elif anchor.startswith(label):  # above the band
                nxt = node.child_towards(anchor)
                if nxt is None or not (
                    anchor.startswith(nxt.label) or nxt.label.startswith(anchor)
                ):
                    return path, False
            else:  # outside the band
                nxt = node.parent
                if nxt is None:
                    return path, False
            node = nxt
            path.append(nxt.label)

    # -- time bookkeeping -------------------------------------------------------

    def end_time_unit(self) -> None:
        """Close the current time unit: aggregate per-node loads for the
        balancers and reset every peer's capacity budget.

        Inlines :meth:`repro.peers.peer.Peer.end_time_unit` (same state
        transitions) and skips peers idle across both the closing and the
        previous unit — their transition is a no-op — because on a
        10⁴-peer ring under destination accounting almost every peer is
        idle almost every unit.  The ``used`` guard matters: the fault
        injector exhausts a partitioned peer's budget directly, without
        recording node load, and that budget must still reset."""
        loads: Dict[str, int] = {}
        get = loads.get
        for peer in self.ring.peers_unordered():
            node_load = peer.node_load
            if node_load:
                for label, count in node_load.items():
                    loads[label] = get(label, 0) + count
            elif not peer.last_node_load and not peer.used:
                continue
            peer.last_node_load = node_load
            peer.node_load = {}
            peer.used = 0
        self.last_unit_load = loads
        self.time_unit += 1

    def node_last_load(self, label: str) -> int:
        return self.last_unit_load.get(label, 0)

    # -- introspection ----------------------------------------------------------

    @property
    def n_peers(self) -> int:
        return len(self.ring)

    @property
    def n_nodes(self) -> int:
        return len(self.tree)

    def registered_keys(self) -> set[str]:
        return self.tree.keys()

    @property
    def registered_key_count(self) -> int:
        """Number of currently registered keys, O(1) — the counter the
        runner reads every time unit instead of walking the whole tree
        (see :attr:`repro.core.pgcp.PGCPTree.filled_count`)."""
        return self.tree.filled_count

    def check_invariants(self) -> None:
        """Full-system consistency: tree Definition 1, ring order, mapping
        rule, and node-index completeness."""
        self.tree.check_invariants()
        self.ring.check_invariants()
        if hasattr(self.mapping, "check_invariants"):
            self.mapping.check_invariants()
        assert set(self.node_index) == self.tree.labels(), (
            "node index out of sync with the tree"
        )


def corpus_peer_id_sampler(
    corpus,
    alphabet: Alphabet = PRINTABLE,
    suffix_length: int = 8,
    alignment: float = 0.15,
    prefix_digits: int = 2,
):
    """Build a peer-identifier sampler partially aligned with a key corpus.

    Peers and tree nodes share one identifier space (paper Section 3).  With
    probability ``alignment`` a peer names itself near the service namespace
    (a random corpus key truncated to ``prefix_digits`` digits plus a random
    suffix — peers cluster around the broad service families, not on exact
    keys); otherwise its id is uniform.  This models the paper's premise
    that "some regions of the ring are more densely populated than others"
    (the KC motivation) while keeping the density imperfect — fully uniform
    ids would strand whole service-name clusters on one peer and make the
    no-LB baseline collapse, fully aligned ids would make placement trivial.
    """
    keys = list(corpus)
    if not keys:
        raise ValueError("corpus must not be empty")
    if not 0.0 <= alignment <= 1.0:
        raise ValueError("alignment must be in [0, 1]")

    def sample(rng) -> str:
        if rng.random() < alignment:
            base = keys[rng.randrange(len(keys))][:prefix_digits]
            return base + alphabet.random_identifier(rng, suffix_length)
        return alphabet.random_identifier(rng, suffix_length + prefix_digits)

    return sample
