"""The asynchronous DLPT protocol engine (Algorithms 1–3 over messages).

This is the *message-level* realisation of the protocols whose net effect
the macro model (:class:`repro.dlpt.system.DLPTSystem`) applies atomically.
Peers are endpoints on a simulated network; logical nodes live inside peers
as :class:`~repro.dlpt.messages.NodeState` records with father/children
*labels* (not object references — everything crosses the wire by
identifier, as in the paper).  A node that moves travels as that record:
a join's split, a leave and a new node's ``SearchingHost`` / ``Host``
hand the object itself over, the sender forgetting it and the receiver
installing it, so a migration between co-hosted peers copies nothing.

Fidelity notes (divergences from the pseudo-code are deliberate and small):

* Algorithm 2 line 2.03 forwards ``NewPredecessor`` while ``Q < P``; taken
  literally this loops forever when the joiner's id exceeds ``P_max`` (every
  peer satisfies ``Q < P``).  We use the circular-interval test
  ``P ∈ (pred_Q, Q]`` instead, which reduces to the paper's condition on the
  non-wrapped arc and terminates on the wrapped one.
* Line 3.37 hands a new node to the host of the current (tree-wise closest)
  node; when a peer with an identifier between that node and the new label
  exists, the mapping rule points elsewhere, so ``Host`` messages forward
  along ring successors until the rule ``host = lowest peer >= label`` holds.
* Node-addressed messages resolve the destination peer through a location
  table updated on node installs/migrations, modelling the node-to-node
  addressing the pseudo-code assumes.  A message that races with a node
  migration is re-resolved once on arrival.
* The paper counts a *logical* hop per tree edge and a *physical* hop per
  message between peers.  The read-only walks — a discovery and both
  phases of a set query — step through the nodes their current peer hosts
  inside one handler call and build a message only when the next node
  lives on another peer: a request costs ``1 + physical hops`` messages,
  and its ``hops`` counter still counts every logical hop.  Writes
  (``DataInsertion``, ``SearchingHost``, ``Host``, ``UpdateChild``,
  ``PeerJoin`` and the ring messages) keep one message per hop, self-sends
  included: Algorithm 3's correctness depends on how they interleave with
  the other messages in flight, and no oracle proves a reordering of them
  safe yet.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..core.ids import common_prefix_len, gcp
from ..core.keyspace import in_interval_open_closed
from . import messages as m
from .messages import Envelope, NodeState


@dataclass
class ProtocolPeer:
    """Peer-local protocol state: ring pointers + hosted nodes (ν)."""

    id: str
    capacity: int
    pred: Optional[str] = None
    succ: Optional[str] = None
    nodes: Dict[str, NodeState] = field(default_factory=dict)

    @property
    def joined(self) -> bool:
        return self.pred is not None


class ProtocolEngine:
    """Drives peers, nodes and messages over a message transport.

    The engine is transport-agnostic: it talks only to the
    :class:`~repro.net.transport.Transport` surface (``register`` /
    ``unregister`` / ``send`` plus a clock), so the same protocol code
    runs under the discrete-event simulator and under a live asyncio
    event loop.  ``ProtocolEngine(transport=t)`` is the API; constructing
    with nothing builds a default
    :class:`~repro.net.transport.SimTransport`.

    ``client_endpoint`` names the engine's reply sink (default
    ``"@client"``); when several engine groups share one wire — the
    multi-process runtime of :mod:`repro.net.procgroup` — each group
    passes a unique endpoint so discovery and query replies route back
    to the issuing process.  The ``on_node_installed`` attribute, when
    set, fires as ``hook(label, peer_id)`` after every node
    install/migration — the seam cross-process locator replication
    hangs off.
    """

    def __init__(
        self,
        transport=None,
        *,
        client_endpoint: str = "@client",
    ) -> None:
        if transport is None:
            # Local import: repro.net.wire imports repro.dlpt for the
            # message types, so this module must not import repro.net at
            # module scope.
            from ..net.transport import SimTransport

            transport = SimTransport()
        self.transport = transport
        self.peers: Dict[str, ProtocolPeer] = {}
        #: label -> hosting peer id (node location service); written only
        #: by :meth:`set_location` / :meth:`drop_locations`.
        self.locator: Dict[str, str] = {}
        #: ``min(self.locator)``, ``None`` on an empty tree: the default
        #: entry node of a client operation, kept where the table is written.
        self.lowest_label: Optional[str] = None
        #: Messages for labels not yet installed (a SearchingHost can race
        #: the Host message creating its target); flushed on install.
        self.pending_node_messages: Dict[str, list] = {}
        self.discovery_replies: list[m.DiscoveryReply] = []
        self.query_replies: list[m.SetQueryReply] = []
        self.dead_node_messages = 0
        self.on_node_installed = None
        self._client_endpoint = client_endpoint
        self.transport.register(self._client_endpoint, self._on_client_message)

    # ------------------------------------------------------------------
    # bootstrap & membership
    # ------------------------------------------------------------------

    def bootstrap_peer(self, peer_id: str, capacity: int = 10) -> ProtocolPeer:
        """Create the very first peer: a ring of one."""
        if self.peers:
            raise RuntimeError("bootstrap only valid on an empty system")
        peer = ProtocolPeer(id=peer_id, capacity=capacity, pred=peer_id, succ=peer_id)
        self._install_peer(peer)
        return peer

    def join_peer(
        self,
        peer_id: str,
        capacity: int = 10,
        via: Optional[str] = None,
        seed: Optional[str] = None,
    ) -> ProtocolPeer:
        """Start the Algorithm 1 join of ``peer_id``.

        ``via`` is the label of the entry node; a random node of an
        arbitrary known peer in a real deployment.  Here, as for every
        client operation, it defaults to :attr:`lowest_label` (the entry
        rule of docs/runtime.md).  When the tree is empty
        the request is delegated directly to the peer layer (there are no
        nodes to route it, cf. Section 3: routing "is mainly achieved by
        the nodes").

        ``seed`` is a registry-assisted shortcut: the id of a peer believed
        to be the joiner's ring successor (as handed out by
        :func:`repro.net.cluster.successor_of`).  The
        ``NewPredecessor`` request is sent straight to that peer — O(1)
        instead of a ring walk — and Algorithm 2's interval check still
        forwards it along the ring if the registry's view was stale.
        """
        if peer_id in self.peers:
            raise ValueError(f"peer {peer_id!r} already exists")
        peer = ProtocolPeer(id=peer_id, capacity=capacity)
        self._install_peer(peer)
        if seed is not None:
            self.transport.send(
                peer_id, seed, m.NewPredecessor(joiner=peer_id, capacity=capacity)
            )
            return peer
        if via is None:
            via = self.lowest_label
        if via is None:
            # Empty tree: seed the NewPredecessor walk at any joined peer.
            seed = self._any_joined_peer()
            self.transport.send(peer_id, seed, m.NewPredecessor(joiner=peer_id, capacity=capacity))
        else:
            self.send_to_node(
                peer_id, via,
                m.PeerJoin(node=via, joiner=peer_id, state=0, capacity=capacity),
            )
        return peer

    def _install_peer(self, peer: ProtocolPeer) -> None:
        self.peers[peer.id] = peer
        self.transport.register(peer.id, self._on_peer_message)

    def _any_joined_peer(self) -> str:
        """Where a walk that no tree node can route starts; an empty ring
        is a named error, not a ``StopIteration`` leaking into (and out
        of) whatever coroutine issued the operation."""
        for pid, peer in self.peers.items():
            if peer.joined:
                return pid
        raise RuntimeError("no peers joined")

    def leave_peer(self, peer_id: str) -> None:
        """Graceful departure: hand ν to the successor, then disappear.

        The leaver sends one ``LeaveTransfer`` to its successor (nodes +
        its predecessor pointer) and an ``UpdateSuccessor`` notice to its
        predecessor, then unregisters its endpoint — any message still in
        flight to it is re-resolved through the location table on arrival.
        """
        peer = self.peers.get(peer_id)
        if peer is None or not peer.joined:
            raise KeyError(f"peer {peer_id!r} not joined")
        if peer.succ == peer.id:
            raise RuntimeError("cannot leave a single-peer ring")
        nodes = tuple(peer.nodes.values())
        self.transport.send(peer.id, peer.succ, m.LeaveTransfer(pred=peer.pred, nodes=nodes))
        self.transport.send(peer.id, peer.pred, m.UpdateSuccessor(new_successor=peer.succ))
        peer.nodes.clear()
        self.transport.unregister(peer.id)
        del self.peers[peer_id]

    def _on_leave_transfer(self, peer: ProtocolPeer, msg: m.LeaveTransfer) -> None:
        for st in msg.nodes:
            self._install_node(peer, st)
        if msg.pred == peer.id:
            # The leaver's predecessor was us: the ring collapsed to one
            # peer — point at ourselves.  (Pointer-local test, not a
            # ``len(self.peers)`` census: under the multi-process runtime
            # a group sees only its own peers.)
            peer.pred = peer.id
            peer.succ = peer.id
        else:
            peer.pred = msg.pred

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------

    def insert_data(self, key: str, datum: object = None, via: Optional[str] = None) -> None:
        """Issue a DataInsertion for ``key`` (Algorithm 3 entry point)."""
        datum = key if datum is None else datum
        if not self.locator:
            # Empty tree: fabricate the root node and find it a host.
            st = NodeState(key, None, set(), {datum})
            start = self._any_joined_peer()
            self.transport.send(self._client_endpoint, start, m.Host(payload=st))
            return
        if via is None:
            via = self.lowest_label
        self.send_to_node(self._client_endpoint, via, m.DataInsertion(node=via, key=key, datum=datum))

    def discover(self, key: str, via: Optional[str] = None) -> None:
        """Issue an asynchronous discovery; the reply lands in
        :attr:`discovery_replies` once the simulator runs."""
        if not self.locator:
            raise RuntimeError("tree is empty")
        if via is None:
            via = self.lowest_label
        self.send_to_node(
            self._client_endpoint,
            via,
            m.DiscoveryRequest(node=via, key=key, reply_to=self._client_endpoint),
        )

    def search_query(
        self, kind: str, lo: str, hi: str = "", via: Optional[str] = None
    ) -> None:
        """Issue an asynchronous set query (``kind`` ``"prefix"`` with the
        prefix in ``lo``, or ``"range"`` with both bounds); the reply lands
        in :attr:`query_replies` once the transport drains."""
        if kind not in ("prefix", "range"):
            raise ValueError(f"unknown set-query kind {kind!r}")
        if kind == "range" and lo > hi:
            raise ValueError(f"empty range: {lo!r} > {hi!r}")
        if not self.locator:
            raise RuntimeError("tree is empty")
        if via is None:
            via = self.lowest_label
        self.send_to_node(
            self._client_endpoint,
            via,
            m.SetQueryRequest(
                node=via, kind=kind, lo=lo, hi=hi, reply_to=self._client_endpoint
            ),
        )

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------

    def send_to_node(self, src: str, label: str, payload) -> None:
        """Deliver a node-addressed message via the location table.

        Messages for a label with no known host are parked until the node
        installs — the common cause is a ``SearchingHost`` racing the
        ``Host`` message that creates its target node.
        """
        host = self.locator.get(label)
        if host is None:
            self.pending_node_messages.setdefault(label, []).append((src, payload))
            return
        self.transport.send(src, host, payload)

    def set_location(self, label: str, host: str) -> None:
        """Point ``label`` at ``host``: with :meth:`drop_locations`, the
        one place the location table is written."""
        self.locator[label] = host
        lowest = self.lowest_label
        if lowest is None or label < lowest:
            self.lowest_label = label

    def drop_locations(self, labels: Optional[Iterable[str]] = None) -> None:
        """Forget ``labels`` (the whole table when ``None``); the table is
        rescanned for its lowest label only when that label was dropped."""
        locator = self.locator
        if labels is None:
            locator.clear()
        else:
            for label in labels:
                locator.pop(label, None)
        if self.lowest_label not in locator:
            self.lowest_label = min(locator, default=None)

    def _on_client_message(self, env: Envelope) -> None:
        if isinstance(env.payload, m.DiscoveryReply):
            self.discovery_replies.append(env.payload)
        elif isinstance(env.payload, m.SetQueryReply):
            self.query_replies.append(env.payload)

    def _on_peer_message(self, env: Envelope) -> None:
        peer = self.peers[env.dst]
        msg = env.payload
        # Node-addressed messages may race a migration: re-resolve once.
        node_label = getattr(msg, "node", None)
        if node_label is not None and node_label not in peer.nodes:
            current = self.locator.get(node_label)
            if current is not None and current != peer.id:
                self.transport.send(env.src, current, msg)
            elif current is None:
                self.pending_node_messages.setdefault(node_label, []).append(
                    (env.src, msg)
                )
            else:
                self.dead_node_messages += 1
            return
        handler = self._HANDLERS[type(msg)]
        handler(self, peer, msg)

    # ------------------------------------------------------------------
    # Algorithm 1 — peer insertion, on node p
    # ------------------------------------------------------------------

    def _on_peer_join(self, peer: ProtocolPeer, msg: m.PeerJoin) -> None:
        p = peer.nodes[msg.node]
        joiner = msg.joiner
        cap = msg.capacity
        if msg.state == 0:
            # Upward phase (lines 1.03–1.10): climb until this node's label
            # prefixes the joiner's id (its band covers the joiner) or the
            # root is reached; either flips the request to state 1.
            if joiner.startswith(p.label) or p.father is None:
                self.send_to_node(
                    peer.id, p.label,
                    m.PeerJoin(node=p.label, joiner=joiner, state=1, capacity=cap),
                )
            else:
                self.send_to_node(
                    peer.id, p.father,
                    m.PeerJoin(node=p.father, joiner=joiner, state=0, capacity=cap),
                )
            return
        # Downward phase (lines 1.11–1.16): descend towards the highest
        # node id <= joiner, then delegate to the peer layer.
        q = p.max_child_leq(joiner)
        if q is not None:
            self.send_to_node(
                peer.id, q, m.PeerJoin(node=q, joiner=joiner, state=1, capacity=cap)
            )
        else:
            self.transport.send(peer.id, peer.id, m.NewPredecessor(joiner=joiner, capacity=cap))

    # ------------------------------------------------------------------
    # Algorithm 2 — peer insertion, on peer Q
    # ------------------------------------------------------------------

    def _on_new_predecessor(self, peer: ProtocolPeer, msg: m.NewPredecessor) -> None:
        joiner = msg.joiner
        if peer.pred == peer.id:
            # A self-loop pointer means we are alone on the ring (the
            # pointer-local singleton test — valid in any process of a
            # multi-process ring): second peer makes a trivial two-peer
            # ring.
            moving = self._split_nodes(peer, joiner)
            self._send_your_information(peer, joiner, pred=peer.id, moving=moving)
            peer.pred = joiner
            peer.succ = joiner
            return
        if not in_interval_open_closed(joiner, peer.pred, peer.id):
            # Not my predecessor: forward along the ring (paper line 2.04,
            # generalised to the circular interval — see module docstring).
            self.transport.send(peer.id, peer.succ, msg)
            return
        moving = self._split_nodes(peer, joiner)
        old_pred = peer.pred
        self._send_your_information(peer, joiner, pred=old_pred, moving=moving)
        self.transport.send(peer.id, old_pred, m.UpdateSuccessor(new_successor=joiner))
        peer.pred = joiner

    def _split_nodes(self, peer: ProtocolPeer, joiner: str) -> tuple[NodeState, ...]:
        """ν_P = {n ∈ ν_Q : n ∈ (pred_Q, P]} (lines 2.06–2.07, interval
        form so the wrapped arc behaves): the records ``peer`` gives up."""
        pred = peer.pred if peer.pred is not None else peer.id
        moving_labels = [
            lbl for lbl in peer.nodes if in_interval_open_closed(lbl, pred, joiner)
        ]
        return tuple(peer.nodes.pop(lbl) for lbl in moving_labels)

    def _send_your_information(
        self, peer: ProtocolPeer, joiner: str, pred: str, moving: tuple[NodeState, ...]
    ) -> None:
        self.transport.send(
            peer.id, joiner, m.YourInformation(pred=pred, succ=peer.id, nodes=moving)
        )

    def _on_your_information(self, peer: ProtocolPeer, msg: m.YourInformation) -> None:
        peer.pred = msg.pred
        peer.succ = msg.succ
        for st in msg.nodes:
            self._install_node(peer, st)

    def _on_update_successor(self, peer: ProtocolPeer, msg: m.UpdateSuccessor) -> None:
        peer.succ = msg.new_successor

    # ------------------------------------------------------------------
    # Algorithm 3 — data insertion, on node p
    # ------------------------------------------------------------------

    def _on_data_insertion(self, peer: ProtocolPeer, msg: m.DataInsertion) -> None:
        p = peer.nodes[msg.node]
        k = msg.key
        datum = msg.datum

        if p.label == k:  # line 3.03
            p.data.add(datum)
            return

        if k.startswith(p.label) and p.label != k:  # lines 3.04–3.09
            q = p.child_sharing_longer_prefix(k)
            if q is not None:
                self.send_to_node(peer.id, q, m.DataInsertion(node=q, key=k, datum=datum))
            else:
                st = NodeState(k, p.label, set(), {datum})
                p.children.add(k)
                self.send_to_node(peer.id, p.label, m.SearchingHost(node=p.label, payload=st))
            return

        if p.label.startswith(k):  # lines 3.10–3.20 (k properly prefixes p)
            if p.father is None:
                st = NodeState(k, None, {p.label}, {datum})
                p.father = k
                self.send_to_node(peer.id, p.label, m.SearchingHost(node=p.label, payload=st))
            else:
                father = p.father
                # Line 3.15's printed condition |GCP(k, f_p)| = |p| can
                # never hold (the GCP is at most |k| < |p|), and reading it
                # as |f_p| ping-pongs between p and its father.  Both k and
                # f_p prefix p, so they are totally ordered: climb when k
                # is at or above the father (k prefixes f_p), splice k
                # between f_p and p otherwise.
                if common_prefix_len(k, father) == len(k):
                    self.send_to_node(peer.id, father, m.DataInsertion(node=father, key=k, datum=datum))
                else:
                    st = NodeState(k, father, {p.label}, {datum})
                    self.send_to_node(peer.id, father, m.SearchingHost(node=father, payload=st))
                    self.send_to_node(peer.id, father, m.UpdateChild(node=father, old=p.label, new=k))
                    p.father = k
            return

        # Neither prefixes the other (lines 3.21–3.31).
        father = p.father
        if father is not None and common_prefix_len(k, p.label) == common_prefix_len(k, father):
            self.send_to_node(peer.id, father, m.DataInsertion(node=father, key=k, datum=datum))
            return
        g = gcp(p.label, k)
        parent_st = NodeState(g, father, {p.label, k})
        key_st = NodeState(k, g, set(), {datum})
        if father is None:
            self.send_to_node(peer.id, p.label, m.SearchingHost(node=p.label, payload=parent_st))
            self.send_to_node(peer.id, p.label, m.SearchingHost(node=p.label, payload=key_st))
        else:
            self.send_to_node(peer.id, father, m.SearchingHost(node=father, payload=parent_st))
            self.send_to_node(peer.id, father, m.UpdateChild(node=father, old=p.label, new=g))
            self.send_to_node(peer.id, father, m.SearchingHost(node=father, payload=key_st))
        p.father = g

    def _on_searching_host(self, peer: ProtocolPeer, msg: m.SearchingHost) -> None:
        # Lines 3.32–3.37: descend to the highest node lower than the new
        # label, then hand the new node to the peer layer.
        p = peer.nodes[msg.node]
        q = p.max_child_leq(msg.payload.label)
        if q is not None and q != msg.payload.label:
            self.send_to_node(peer.id, q, m.SearchingHost(node=q, payload=msg.payload))
        else:
            self.transport.send(peer.id, peer.id, m.Host(payload=msg.payload))

    def _on_host(self, peer: ProtocolPeer, msg: m.Host) -> None:
        # Peer layer: enforce the mapping rule by ring forwarding (module
        # docstring, fidelity note 2).
        label = msg.payload.label
        if peer.pred is None:
            self.dead_node_messages += 1
            return
        if not in_interval_open_closed(label, peer.pred, peer.id):
            # ``(pred, pred]`` is the whole ring, so a singleton peer
            # (self-loop pointers) accepts every label without needing a
            # peer census — the census would be wrong in a multi-process
            # ring anyway.
            self.transport.send(peer.id, peer.succ, msg)
            return
        self._install_node(peer, msg.payload)

    def _on_update_child(self, peer: ProtocolPeer, msg: m.UpdateChild) -> None:
        peer.nodes[msg.node].replace_child(msg.old, msg.new)

    def _install_node(self, peer: ProtocolPeer, st: NodeState) -> None:
        """``peer`` takes over the node record its sender gave up."""
        label = st.label
        peer.nodes[label] = st
        self.set_location(label, peer.id)
        if self.on_node_installed is not None:
            self.on_node_installed(label, peer.id)
        # Flush messages that raced this node's creation/arrival.
        parked = self.pending_node_messages.pop(label, None)
        if parked:
            for src, msg in parked:
                self.transport.send(src, peer.id, msg)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------

    def _on_discovery(self, peer: ProtocolPeer, msg: m.DiscoveryRequest) -> None:
        """Walk up, then down, towards ``msg.key``: every tree edge is one
        hop, and the request becomes a message again only when the next
        node lives on another peer (module docstring, fidelity note 4)."""
        nodes = peer.nodes
        p = nodes[msg.node]
        k = msg.key
        hops = msg.hops
        while True:
            label = p.label
            if label == k:
                self.transport.send(
                    peer.id,
                    msg.reply_to,
                    m.DiscoveryReply(key=k, found=True, data=tuple(p.data), hops=hops),
                )
                return
            if k.startswith(label):
                nxt = p.child_sharing_longer_prefix(k)
                if nxt is not None and not k.startswith(nxt):
                    nxt = None
            else:
                nxt = p.father
            if nxt is None:
                break
            hops += 1
            q = nodes.get(nxt)
            if q is None:
                # (node, key, reply_to, hops) — the per-hop records are built
                # positionally: keyword passing doubles a constructor's cost.
                self.send_to_node(peer.id, nxt, m.DiscoveryRequest(nxt, k, msg.reply_to, hops))
                return
            p = q
        self.transport.send(peer.id, msg.reply_to, m.DiscoveryReply(key=k, found=False, hops=hops))

    # ------------------------------------------------------------------
    # set queries (prefix completion / lexicographic range)
    # ------------------------------------------------------------------

    def _on_set_query(self, peer: ProtocolPeer, msg: m.SetQueryRequest) -> None:
        """Route, then scan.  Phase 0 climbs from the entry node to the
        scan root — the *highest* node whose label extends the band's
        anchor — descending along the anchor's spine when the entry sits
        outside the band.  Phase 1 walks the scan subtree as a token in
        DFS order, carrying the matches and the still-to-visit labels.
        Every step to a next node is one hop, so the reply's count equals
        the macro model's climb + descent + (visited − 1) accounting; the
        token becomes a message only when that node lives on another peer,
        and only then are its matches and pending labels copied into one."""
        nodes = peer.nodes
        p = nodes[msg.node]
        kind, lo, hi = msg.kind, msg.lo, msg.hi
        hops = msg.hops
        if msg.phase == 0:
            anchor = lo if kind == "prefix" else gcp(lo, hi)
            while True:
                label = p.label
                if label.startswith(anchor):
                    # Inside the band: climb while the father still extends
                    # the anchor; the highest such node is the scan root.
                    nxt = p.father
                    if nxt is None or not nxt.startswith(anchor):
                        break
                elif anchor.startswith(label):
                    # Above the band: descend toward the anchor.
                    nxt = p.child_sharing_longer_prefix(anchor)
                    if nxt is None or not (anchor.startswith(nxt) or nxt.startswith(anchor)):
                        self._reply_query(peer, msg, (), hops)  # nothing under the anchor
                        return
                else:
                    nxt = p.father
                    if nxt is None:
                        self._reply_query(peer, msg, (), hops)  # root diverges from the anchor
                        return
                hops += 1
                q = nodes.get(nxt)
                if q is None:
                    # (node, kind, lo, hi, reply_to, phase, pending, keys, hops)
                    self.send_to_node(
                        peer.id,
                        nxt,
                        m.SetQueryRequest(
                            nxt, kind, lo, hi, msg.reply_to, 0, msg.pending, msg.keys, hops
                        ),
                    )
                    return
                p = q
        prefix = kind == "prefix"
        keys = list(msg.keys)
        pending = list(msg.pending)
        while True:
            # One scan visit at ``p``: collect its label if filled and
            # matching, push its in-band children onto the pending stack.
            label = p.label
            if p.data and (label.startswith(lo) if prefix else lo <= label <= hi):
                keys.append(label)
            kids = p._index()
            if not prefix:
                kids = [c for c in kids if not (c > hi or (c < lo and not lo.startswith(c)))]
            pending.extend(reversed(kids))
            if not pending:
                break
            nxt = pending.pop()
            hops += 1
            q = nodes.get(nxt)
            if q is None:
                self.send_to_node(
                    peer.id,
                    nxt,
                    m.SetQueryRequest(
                        nxt, kind, lo, hi, msg.reply_to, 1, tuple(pending), tuple(keys), hops
                    ),
                )
                return
            p = q
        self._reply_query(peer, msg, keys, hops)

    def _reply_query(self, peer: ProtocolPeer, msg: m.SetQueryRequest, keys, hops: int) -> None:
        self.transport.send(
            peer.id,
            msg.reply_to,
            m.SetQueryReply(
                kind=msg.kind, lo=msg.lo, hi=msg.hi,
                keys=tuple(sorted(keys)), hops=hops,
            ),
        )

    # ------------------------------------------------------------------
    # verification helpers
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Run the simulator until the protocol quiesces (synchronous;
        only meaningful under a :class:`~repro.net.transport.SimTransport`
        — under an asyncio transport, ``await transport.drain()``)."""
        runner = getattr(self.transport, "run_until_idle", None)
        if runner is None:
            raise RuntimeError(
                "run() needs a SimTransport; under an asyncio transport "
                "use `await transport.drain()`"
            )
        runner()

    def tree_edges(self) -> set[tuple[str, str]]:
        """(father, child) pairs as recorded on the hosting peers."""
        edges = set()
        for peer in self.peers.values():
            for st in peer.nodes.values():
                for c in st.children:
                    edges.add((st.label, c))
        return edges

    def node_labels(self) -> set[str]:
        return set(self.locator)

    def check_ring(self) -> None:
        """Ring pointers form a single consistent cycle in id order."""
        ids = sorted(p.id for p in self.peers.values() if p.joined)
        n = len(ids)
        for i, pid in enumerate(ids):
            peer = self.peers[pid]
            assert peer.succ == ids[(i + 1) % n], (
                f"{pid!r}: succ {peer.succ!r} != {ids[(i + 1) % n]!r}"
            )
            assert peer.pred == ids[(i - 1) % n], (
                f"{pid!r}: pred {peer.pred!r} != {ids[(i - 1) % n]!r}"
            )

    def check_mapping(self) -> None:
        """Every node lives on the lowest peer id >= its label (wrapped)."""
        ids = sorted(p.id for p in self.peers.values() if p.joined)
        for label, host in self.locator.items():
            i = bisect.bisect_left(ids, label)
            expected = ids[i] if i < len(ids) else ids[0]
            assert host == expected, (
                f"node {label!r} on {host!r}, mapping rule wants {expected!r}"
            )
            assert label in self.peers[host].nodes

    def check_tree(self) -> None:
        """Father/child links are mutually consistent and acyclic, and the
        PGCP labelling discipline holds."""
        states: Dict[str, NodeState] = {}
        for peer in self.peers.values():
            for lbl, st in peer.nodes.items():
                assert lbl not in states, f"node {lbl!r} hosted twice"
                states[lbl] = st
        roots = [st for st in states.values() if st.father is None]
        assert len(roots) == (1 if states else 0), f"{len(roots)} roots"
        for st in states.values():
            for c in st.children:
                assert c in states, f"dangling child {c!r} of {st.label!r}"
                assert states[c].father == st.label, (
                    f"child {c!r} thinks father is {states[c].father!r}, "
                    f"not {st.label!r}"
                )
                assert c.startswith(st.label) and c != st.label
            kids = sorted(st.children)
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    assert gcp(kids[i], kids[j]) == st.label, (
                        f"Definition 1 violated under {st.label!r}: "
                        f"{kids[i]!r} vs {kids[j]!r}"
                    )

    _HANDLERS = {}


ProtocolEngine._HANDLERS = {
    m.PeerJoin: ProtocolEngine._on_peer_join,
    m.NewPredecessor: ProtocolEngine._on_new_predecessor,
    m.YourInformation: ProtocolEngine._on_your_information,
    m.UpdateSuccessor: ProtocolEngine._on_update_successor,
    m.LeaveTransfer: ProtocolEngine._on_leave_transfer,
    m.DataInsertion: ProtocolEngine._on_data_insertion,
    m.SearchingHost: ProtocolEngine._on_searching_host,
    m.Host: ProtocolEngine._on_host,
    m.UpdateChild: ProtocolEngine._on_update_child,
    m.DiscoveryRequest: ProtocolEngine._on_discovery,
    m.SetQueryRequest: ProtocolEngine._on_set_query,
}
