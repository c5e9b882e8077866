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
    _covering_node,
    _pruned_dfs,
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
        #: Route index behind batches and set-query scans (version-guarded
        #: spine/hop caches).
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
        executors never see a malformed query.  The route mirrors
        :meth:`discover`: climb from the entry node to the deepest ancestor
        covering the query band's anchor (the prefix itself, or the GCP of
        the range bounds), descend to the scan root, then fan out over the
        scan subtree — charging every *scanned* node's host, one logical
        hop per scan forward.  On a crash-damaged forest the indexed scan
        gives way to the walking resolver, which additionally sweeps every
        orphan fragment (one extra jump each) so the answer stays complete.

        ``results`` is always the full sorted answer over the registered
        key set — capacity exhaustion affects ``satisfied``/``dropped_at``
        only.  With neither ``entry_label`` nor ``rng`` the query enters at
        the scan root (zero routing hops); a multi-attribute query draws a
        fresh entry per clause when given only ``rng``.
        """
        query = parse_query(query, self.alphabet)
        if isinstance(query, MultiAttributeQuery):
            return self._search_multi(query, entry_label, rng)
        outcome, _ = self._execute_single(query, entry_label, rng)
        return outcome

    def search_batch(self, items, rng=None) -> QueryBatchOutcome:
        """Serve a batch of ``(query, entry_label)`` set queries; returns
        the aggregated :class:`QueryBatchOutcome` counters (the count-dict
        twin of :meth:`discover_batch` — per-query outcomes are absorbed,
        never kept).  ``entry_label`` of ``None`` draws from ``rng``."""
        out = QueryBatchOutcome()
        for query, entry_label in items:
            out.absorb(self.search(query, entry_label=entry_label, rng=rng))
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
        intersection)."""
        anchor, lo, hi = self._query_band(query)
        tree = self.tree
        router = self.router
        router.sync()
        fragments = router.fragment_roots()
        if not fragments:
            return QueryOutcome(
                query=query.describe(), results=(), satisfied=True,
                logical_hops=0, physical_hops=0, nodes_scanned=0,
            ), set()
        if len(fragments) > 1 or tree.root is None:
            # Crash-damaged forest (orphan fragments, or a destroyed root
            # with survivors): the frozen walking resolver sweeps every
            # fragment so the answer stays oracle-complete.
            return self._search_walk(query, anchor, lo, hi, entry_label, rng)
        if entry_label is None and rng is not None:
            entry_label = self.random_entry_label(rng)
        scan_root, visited = router.subtree_scan(anchor, lo, hi)

        # -- routing leg: entry -> join -> scan root ------------------------
        logical = physical = 0
        dropped_at = None
        if entry_label is not None:
            e_depth, e_rpc, _, frag = router.node_info(entry_label)
            if frag != tree.root.label:  # pragma: no cover - defensive
                return self._search_walk(query, anchor, lo, hi, entry_label, rng)
            if scan_root is not None and entry_label.startswith(scan_root):
                # Entry inside the scan subtree: the route is the straight
                # climb to the scan root (the first ancestor whose subtree
                # covers the whole band).
                sr_depth, sr_rpc, _, _ = router.node_info(scan_root)
                logical = e_depth - sr_depth
                physical = e_rpc - sr_rpc
            else:
                # Otherwise the request climbs to its join with the
                # anchor's spine: the deepest spine node prefixing the
                # entry, or the root when the root's label does not prefix
                # the anchor (no spine).
                labels, _ = router.spine(anchor)
                j = 0
                last = len(labels) - 1
                while j < last and entry_label.startswith(labels[j + 1]):
                    j += 1
                if labels:
                    j_depth, j_rpc, _, _ = router.node_info(labels[j])
                else:
                    j_depth = j_rpc = 0
                if scan_root is None:
                    # No node covers the anchor: the request descends the
                    # spine and dies at its tip (the root when there is no
                    # spine) — the deepest node that could have had a
                    # band-compatible child (a distributed scan token only
                    # discovers the band is empty by walking there).  The
                    # tip's host is charged.
                    tip_label = labels[-1] if labels else tree.root.label
                    tip_depth, tip_rpc, tip_peer, _ = router.node_info(tip_label)
                    if not tip_peer.try_process(tip_label):
                        dropped_at = tip_peer.id
                    return QueryOutcome(
                        query=query.describe(), results=(),
                        satisfied=dropped_at is None,
                        logical_hops=(e_depth - j_depth) + (tip_depth - j_depth),
                        physical_hops=(e_rpc - j_rpc) + (tip_rpc - j_rpc),
                        nodes_scanned=0, dropped_at=dropped_at,
                    ), set()
                # ...then descends the spine to the scan root.
                sr_depth, sr_rpc, _, _ = router.node_info(scan_root)
                logical = (e_depth - j_depth) + (sr_depth - j_depth)
                physical = (e_rpc - j_rpc) + (sr_rpc - j_rpc)
        elif scan_root is None:
            return QueryOutcome(
                query=query.describe(), results=(), satisfied=True,
                logical_hops=0, physical_hops=0, nodes_scanned=0,
            ), set()

        # -- scan leg: charge every visited node's host ----------------------
        results, data, scan_logical, scan_physical, drop = self._run_scan(
            query, visited
        )
        if dropped_at is None:
            dropped_at = drop
        return QueryOutcome(
            query=query.describe(),
            results=tuple(sorted(results)),
            satisfied=dropped_at is None,
            logical_hops=logical + scan_logical,
            physical_hops=physical + scan_physical,
            nodes_scanned=len(visited),
            dropped_at=dropped_at,
        ), data

    def _run_scan(self, query, visited):
        """Charge the hosts of ``visited`` (in DFS order) and collect the
        filled labels matching ``query``: ``(results, data, logical,
        physical, dropped_at)``.  One logical hop per scan forward; a
        physical hop whenever consecutive visits change peers."""
        host_of = self.mapping.host_of
        node_of = self.tree.node
        matches = query.matches
        results: list[str] = []
        data: set = set()
        physical = 0
        prev_peer = None
        dropped_at = None
        for lbl in visited:
            peer = host_of(lbl)
            if prev_peer is not None and peer is not prev_peer:
                physical += 1
            prev_peer = peer
            if not peer.try_process(lbl) and dropped_at is None:
                dropped_at = peer.id
            node = node_of(lbl)
            if node.data and matches(lbl):
                results.append(lbl)
                data.update(node.data)
        logical = max(0, len(visited) - 1)
        return results, data, logical, physical, dropped_at

    def _search_walk(self, query, anchor, lo, hi, entry_label, rng):
        """Walking set-query resolver for damaged forests: climb within the
        entry's fragment, then sweep *every* fragment whose band overlaps
        the query (one extra logical+physical jump per additional
        fragment), so orphaned keys still appear in the answer."""
        tree = self.tree
        router = self.router
        if entry_label is None and rng is not None:
            entry_label = self.random_entry_label(rng)
        logical = physical = 0
        climb_top = None
        if entry_label is not None:
            node = tree.node(entry_label)
            if node is None:
                raise KeyError(f"entry node {entry_label!r} not in the tree")
            host_of = self.mapping.host_of
            prev_peer = host_of(node.label)
            # Climb until this node's subtree covers the band (its label
            # prefixes the anchor, or extends it)...
            while (
                not (anchor.startswith(node.label) or node.label.startswith(anchor))
                and node.parent is not None
            ):
                node = node.parent
                peer = host_of(node.label)
                if peer is not prev_peer:
                    physical += 1
                prev_peer = peer
                logical += 1
            # ...then, if the entry started *inside* the scan subtree, keep
            # climbing to the highest covering node (the scan root) so the
            # scan sweeps the whole band, not just the entry's subtree.
            while node.parent is not None and node.parent.label.startswith(anchor):
                node = node.parent
                peer = host_of(node.label)
                if peer is not prev_peer:
                    physical += 1
                prev_peer = peer
                logical += 1
            climb_top = node

        results: list[str] = []
        data: set = set()
        scanned = 0
        dropped_at = None
        fragments = 0
        for frag_label in router.fragment_roots():
            frag_root = tree.node(frag_label)
            if climb_top is not None and router.node_info(entry_label)[3] == frag_label:
                covers = anchor.startswith(climb_top.label) or climb_top.label.startswith(
                    anchor
                )
                start = climb_top if covers else frag_root
            else:
                start = frag_root
            cover = _covering_node(start, anchor)
            if cover is None:
                continue
            # Descent edges from ``start`` down to the covering node.
            depth_start = router.node_info(start.label)[0]
            depth_cover = router.node_info(cover.label)[0]
            fragments += 1
            if fragments > 1:
                logical += 1  # cross-fragment jump (no tree edge)
                physical += 1
            logical += depth_cover - depth_start
            physical += (
                router.node_info(cover.label)[1] - router.node_info(start.label)[1]
            )
            visited = _pruned_dfs(cover, lo, hi)
            scanned += len(visited)
            frag_results, frag_data, s_log, s_phys, drop = self._run_scan(
                query, visited
            )
            results.extend(frag_results)
            data.update(frag_data)
            logical += s_log
            physical += s_phys
            if dropped_at is None:
                dropped_at = drop
        return QueryOutcome(
            query=query.describe(),
            results=tuple(sorted(results)),
            satisfied=dropped_at is None,
            logical_hops=logical,
            physical_hops=physical,
            nodes_scanned=scanned,
            dropped_at=dropped_at,
        ), data

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
