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
  table that moves with a node when it is handed over, modelling the
  node-to-node addressing the pseudo-code assumes: a message at the old
  host follows the node, and one that arrives first waits for the install.
* The paper counts a *logical* hop per tree edge and a *physical* hop per
  message between peers.  Reads and writes walk the tree by one rule: a
  discovery, both phases of a set query, an insertion's
  ``DataInsertion`` climb and descent and its ``SearchingHost`` descent
  step through the nodes their current peer hosts inside one handler
  call, and build a message only when the next node lives on another
  peer.  A read costs ``1 + physical hops`` messages — a key batch one
  per cross-peer edge of the union of its keys' paths, plus one — and
  its ``hops`` counter still counts every logical hop.  What changes
  the tree stays a message, in its order: an insertion's terminal
  ``SearchingHost`` to ``p`` or its father and its ``UpdateChild``,
  ``PeerJoin`` and the ring messages.  A new node whose
  ``SearchingHost`` descent ends on a peer where the mapping rule
  already holds is installed there in place; elsewhere its ``Host`` is
  sent, and forwarded as note 2 says.  The proof that stepping writes
  in place is safe is the seeded schedule explorer
  (``tests/dlpt/test_protocol_schedules.py``): per-pair FIFO, any
  interleaving across pairs, and the ring, tree, mapping and every key
  checked after each schedule.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.ids import gcp
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
    #: ``NewPredecessor`` and ``Host`` messages that reached this peer while
    #: its own join was in flight; handled once ``YourInformation`` lands.
    deferred: list = field(default_factory=list)

    @property
    def joined(self) -> bool:
        return self.pred is not None


_PRED = operator.attrgetter("pred")
_LABEL = operator.attrgetter("label")


def check_set_query(kind: str, lo: str, hi: str) -> None:
    """Refuse a set query no walk can answer, whatever the tree holds (the
    engine's and the broker's admission rule)."""
    if kind not in ("prefix", "range"):
        raise ValueError(f"unknown set-query kind {kind!r}")
    if kind == "range" and lo > hi:
        raise ValueError(f"empty range: {lo!r} > {hi!r}")


class ProtocolEngine:
    """Drives peers, nodes and messages over a message transport.

    The engine is transport-agnostic: it talks only to the
    :class:`~repro.net.transport.Transport` surface (``register`` /
    ``unregister`` / ``send`` plus a clock), so the same protocol code
    runs on a :class:`~repro.net.transport.SimTransport`'s event heap
    and under a live asyncio event loop.  ``ProtocolEngine(transport=t)``
    is the API; constructing with nothing builds a default
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
        #: by :meth:`set_locations` — a label moves, it is never dropped.
        self.locator: Dict[str, str] = {}
        #: ``min(self.locator)``, ``None`` on an empty tree: the default
        #: entry node of a client operation, kept where the table is written.
        self.lowest_label: Optional[str] = None
        #: Messages for labels not yet installed (a SearchingHost can race
        #: the Host message creating its target); released by set_locations.
        self.pending_node_messages: Dict[str, list] = {}
        self.discovery_replies: list[m.DiscoveryReply] = []
        self.query_replies: list[m.SetQueryReply] = []
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
        client operation, it goes through :meth:`entry`.  When the tree is
        empty the request is delegated directly to the peer layer (there
        are no nodes to route it, cf. Section 3: routing "is mainly
        achieved by the nodes").

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
        via = self.entry(via)
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

    def live_ids(self) -> List[str]:
        """Sorted ids of the live peers: those that have *joined* (``pred``
        set; a peer whose join is in flight is installed, not live).  In C:
        no Python-level call per peer."""
        joined = map(operator.is_not, map(_PRED, self.peers.values()), itertools.repeat(None))
        return sorted(itertools.compress(self.peers, joined))

    def live_count(self) -> int:
        """``len(live_ids())`` without building or sorting a list."""
        return len(self.peers) - operator.countOf(map(_PRED, self.peers.values()), None)

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

        The leaver points its labels at its successor, sends it one
        ``LeaveTransfer`` (nodes + its predecessor pointer) and an
        ``UpdateSuccessor`` notice to its predecessor, then unregisters its
        endpoint — a message still in flight to it dead-letters.
        """
        peer = self.peers.get(peer_id)
        if peer is None or not peer.joined:
            raise KeyError(f"peer {peer_id!r} not joined")
        if peer.succ == peer.id:
            raise RuntimeError("cannot leave a single-peer ring")
        nodes = tuple(peer.nodes.values())
        self.set_locations(tuple(peer.nodes), peer.succ)
        self.transport.send(peer.id, peer.succ, m.LeaveTransfer(pred=peer.pred, nodes=nodes))
        self.transport.send(peer.id, peer.pred, m.UpdateSuccessor(new_successor=peer.succ))
        peer.nodes.clear()
        self.transport.unregister(peer.id)
        del self.peers[peer_id]

    def _on_leave_transfer(self, peer: ProtocolPeer, msg: m.LeaveTransfer) -> None:
        self._install_nodes(peer, msg.nodes)
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

    def entry(self, via: Optional[str]) -> Optional[str]:
        """The entry node of a client operation (docs/runtime.md, "The entry
        rule"): ``via`` if it is a live label, else :attr:`lowest_label`."""
        return via if via in self.locator else self.lowest_label

    def insert_data(self, key: str, datum: object = None, via: Optional[str] = None) -> None:
        """Issue a DataInsertion for ``key`` (Algorithm 3 entry point)."""
        datum = key if datum is None else datum
        if not self.locator:
            # Empty tree: fabricate the root node and find it a host.
            st = NodeState(key, None, (), {datum})
            start = self._any_joined_peer()
            self.transport.send(self._client_endpoint, start, m.Host(st))
            return
        via = self.entry(via)
        self.send_to_node(self._client_endpoint, via, m.DataInsertion(via, key, datum))

    def discover(self, key: str, via: Optional[str] = None) -> None:
        """Issue an asynchronous discovery; the reply lands in
        :attr:`discovery_replies` once the transport drains."""
        if not self.locator:
            raise RuntimeError("tree is empty")
        via = self.entry(via)
        client = self._client_endpoint
        self.send_to_node(client, via, m.DiscoveryRequest(via, key, client))

    def discover_batch(self, keys: Sequence[str], via: Optional[str] = None) -> None:
        """Issue one discovery per key of ``keys`` (duplicates included)
        as one walk from one entry node: the sorted keys travel together
        and fork where their next nodes differ, so each tree edge of their
        paths is stepped once.  One reply per key lands in
        :attr:`discovery_replies`, in no set order; a batch of one is
        :meth:`discover`."""
        if len(keys) == 1:
            self.discover(keys[0], via)
            return
        if not self.locator:
            raise RuntimeError("tree is empty")
        if keys:
            via = self.entry(via)
            client = self._client_endpoint
            self.send_to_node(client, via, m.DiscoveryBatch(via, tuple(sorted(keys)), client))

    def search_query(
        self, kind: str, lo: str, hi: str = "", via: Optional[str] = None
    ) -> None:
        """Issue an asynchronous set query (``kind`` ``"prefix"`` with the
        prefix in ``lo``, or ``"range"`` with both bounds); the reply lands
        in :attr:`query_replies` once the transport drains."""
        check_set_query(kind, lo, hi)
        if not self.locator:
            raise RuntimeError("tree is empty")
        via = self.entry(via)
        client = self._client_endpoint
        self.send_to_node(client, via, m.SetQueryRequest(via, kind, lo, hi, client))

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
        """Point ``label`` at ``host`` (:meth:`set_locations` of one)."""
        self.set_locations((label,), host)

    def set_locations(self, labels, host: str) -> None:
        """Point every label of the sequence ``labels`` at ``host``: the
        one place the location table is written, and so the one place
        that releases the messages parked for a label — they go to
        ``host``, label by label, and one that gets there ahead of its
        node waits again until it installs.  A handover moves a peer's
        nodes in one call: one table update, one ``lowest_label`` test."""
        if not labels:
            return
        self.locator.update(dict.fromkeys(labels, host))
        low = min(labels)
        lowest = self.lowest_label
        if lowest is None or low < lowest:
            self.lowest_label = low
        pending = self.pending_node_messages
        if pending:
            send = self.transport.send
            for label in labels:
                for src, msg in pending.pop(label, ()):
                    send(src, host, msg)

    def _on_client_message(self, env: Envelope) -> None:
        if isinstance(env.payload, m.DiscoveryReply):
            self.discovery_replies.append(env.payload)
        elif isinstance(env.payload, m.SetQueryReply):
            self.query_replies.append(env.payload)

    def _on_peer_message(self, env: Envelope) -> None:
        peer = self.peers[env.dst]
        msg = env.payload
        # A message behind its node follows it; one ahead of it waits here.
        node_label = getattr(msg, "node", None)
        if node_label is not None and node_label not in peer.nodes:
            current = self.locator.get(node_label)
            if current is not None and current != peer.id:
                self.transport.send(env.src, current, msg)
            else:
                self.pending_node_messages.setdefault(node_label, []).append(
                    (env.src, msg)
                )
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
        if not peer.joined:
            # Our own join is in flight: answer once our pointers land.
            peer.deferred.append(msg)
            return
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
        form so the wrapped arc behaves): the records ``peer`` gives up,
        pointed at the joiner from the hand-over on, so a message for one
        of them follows it over the same link.  ``peer`` has joined."""
        pred = peer.pred
        if pred < joiner:
            moving = [lbl for lbl in peer.nodes if pred < lbl <= joiner]
        else:
            moving = [lbl for lbl in peer.nodes if lbl > pred or lbl <= joiner]
        self.set_locations(moving, joiner)
        return tuple(map(peer.nodes.pop, moving))

    def _send_your_information(
        self, peer: ProtocolPeer, joiner: str, pred: str, moving: tuple[NodeState, ...]
    ) -> None:
        self.transport.send(
            peer.id, joiner, m.YourInformation(pred=pred, succ=peer.id, nodes=moving)
        )

    def _on_your_information(self, peer: ProtocolPeer, msg: m.YourInformation) -> None:
        peer.pred = msg.pred
        peer.succ = msg.succ
        self._install_nodes(peer, msg.nodes)
        deferred, peer.deferred = peer.deferred, []
        for early in deferred:
            self._HANDLERS[type(early)](self, peer, early)

    def _on_update_successor(self, peer: ProtocolPeer, msg: m.UpdateSuccessor) -> None:
        peer.succ = msg.new_successor

    # ------------------------------------------------------------------
    # Algorithm 3 — data insertion, on node p
    # ------------------------------------------------------------------
    # Its messages are built positionally, as the read walks build theirs:
    # keyword passing doubles a constructor's cost.

    def _on_data_insertion(self, peer: ProtocolPeer, msg: m.DataInsertion) -> None:
        """Climb or descend towards the key's place, one logical hop per
        tree edge, stepping through this peer's nodes without a message
        (module docstring, fidelity note 4); the terminal case sends its
        structural messages."""
        nodes = peer.nodes
        p = nodes[msg.node]
        k = msg.key
        datum = msg.datum
        while True:
            label = p.label
            if label == k:  # line 3.03
                p.data.add(datum)
                return
            father = p.father
            if k.startswith(label):  # lines 3.04–3.09
                nxt = p.child_sharing_longer_prefix(k)
                if nxt is None:
                    st = NodeState(k, label, (), {datum})
                    p.add_child(k)
                    self.send_to_node(peer.id, label, m.SearchingHost(label, st))
                    return
            elif label.startswith(k):  # lines 3.10–3.20 (k properly prefixes p)
                if father is None:
                    st = NodeState(k, None, (label,), {datum})
                    p.father = k
                    self.send_to_node(peer.id, label, m.SearchingHost(label, st))
                    return
                # Line 3.15's printed condition |GCP(k, f_p)| = |p| can
                # never hold (the GCP is at most |k| < |p|), and reading it
                # as |f_p| ping-pongs between p and its father.  Both k and
                # f_p prefix p, so they are totally ordered: climb when k
                # is at or above the father (k prefixes f_p), splice k
                # between f_p and p otherwise.
                if not father.startswith(k):
                    st = NodeState(k, father, (label,), {datum})
                    self.send_to_node(peer.id, father, m.SearchingHost(father, st))
                    self.send_to_node(peer.id, father, m.UpdateChild(father, label, k))
                    p.father = k
                    return
                nxt = father
            # Neither prefixes the other (lines 3.21–3.31).  The father
            # properly prefixes p, so |GCP(k, p)| = |GCP(k, f_p)| — climb —
            # exactly when k does not share p's first digit below f_p.
            elif father is not None and not k.startswith(label[: len(father) + 1]):
                nxt = father
            else:
                g = gcp(label, k)
                parent_st = NodeState(g, father, tuple(sorted((label, k))))
                key_st = NodeState(k, g, (), {datum})
                if father is None:
                    self.send_to_node(peer.id, label, m.SearchingHost(label, parent_st))
                    self.send_to_node(peer.id, label, m.SearchingHost(label, key_st))
                else:
                    self.send_to_node(peer.id, father, m.SearchingHost(father, parent_st))
                    self.send_to_node(peer.id, father, m.UpdateChild(father, label, g))
                    self.send_to_node(peer.id, father, m.SearchingHost(father, key_st))
                p.father = g
                return
            q = nodes.get(nxt)
            if q is None:
                self.send_to_node(peer.id, nxt, m.DataInsertion(nxt, k, datum))
                return
            p = q

    def _on_searching_host(self, peer: ProtocolPeer, msg: m.SearchingHost) -> None:
        # Lines 3.32–3.37: descend to the highest node lower than the new
        # label, then hand the new node to the peer layer — in place when
        # the mapping rule ``label ∈ (pred, id]`` holds at this peer.
        nodes = peer.nodes
        p = nodes[msg.node]
        st = msg.payload
        label = st.label
        while True:
            q = p.max_child_leq(label)
            if q is None or q == label:
                break
            p = nodes.get(q)
            if p is None:
                self.send_to_node(peer.id, q, m.SearchingHost(q, st))
                return
        pid = peer.id
        pred = peer.pred
        if pred is not None and (
            pred < label <= pid if pred < pid else (label > pred or label <= pid)
        ):
            self._install_nodes(peer, (st,))
        else:
            self.transport.send(pid, pid, m.Host(st))

    def _on_host(self, peer: ProtocolPeer, msg: m.Host) -> None:
        # Peer layer: enforce the mapping rule by ring forwarding (module
        # docstring, fidelity note 2).
        label = msg.payload.label
        if not peer.joined:
            peer.deferred.append(msg)
            return
        if not in_interval_open_closed(label, peer.pred, peer.id):
            # ``(pred, pred]`` is the whole ring, so a singleton peer
            # (self-loop pointers) accepts every label without needing a
            # peer census — the census would be wrong in a multi-process
            # ring anyway.
            self.transport.send(peer.id, peer.succ, msg)
            return
        self._install_nodes(peer, (msg.payload,))

    def _on_update_child(self, peer: ProtocolPeer, msg: m.UpdateChild) -> None:
        peer.nodes[msg.node].replace_child(msg.old, msg.new)

    def _install_nodes(self, peer: ProtocolPeer, states) -> None:
        """``peer`` takes over the node records its sender gave up: one
        batch into its table and the locator, then the install hook once
        per label."""
        labels = list(map(_LABEL, states))
        peer.nodes.update(zip(labels, states))
        pid = peer.id
        self.set_locations(labels, pid)
        hook = self.on_node_installed
        if hook is not None:
            for label in labels:
                hook(label, pid)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------

    # Replies ``(key, found, data, hops)`` and per-hop requests ``(node,
    # key | keys, reply_to, hops)`` are built positionally: keyword
    # passing doubles a constructor's cost.

    def _on_discovery(self, peer: ProtocolPeer, msg: m.DiscoveryRequest) -> None:
        """Walk up, then down, towards ``msg.key``: every tree edge is one
        hop, and the request becomes a message again only when the next
        node lives on another peer (module docstring, fidelity note 4).
        Going down, the one child that can prefix the key is the last
        child ``<= key`` (children diverge right after their father's
        label)."""
        nodes = peer.nodes
        p = nodes[msg.node]
        k = msg.key
        reply_to = msg.reply_to
        hops = msg.hops
        while True:
            label = p.label
            if label == k:
                self.transport.send(
                    peer.id, reply_to, m.DiscoveryReply(k, True, tuple(p.data), hops)
                )
                return
            if k.startswith(label):
                kids = p.children
                i = bisect_right(kids, k)
                if not i:
                    break
                nxt = kids[i - 1]
                if not k.startswith(nxt):
                    break
            else:
                nxt = p.father
                if nxt is None:
                    break
            hops += 1
            q = nodes.get(nxt)
            if q is None:
                self.send_to_node(peer.id, nxt, m.DiscoveryRequest(nxt, k, reply_to, hops))
                return
            p = q
        self.transport.send(peer.id, reply_to, m.DiscoveryReply(k, False, (), hops))

    def _on_discovery_batch(self, peer: ProtocolPeer, msg: m.DiscoveryBatch) -> None:
        """:meth:`_on_discovery` for a sorted group of keys at once.  At a
        node the keys its label prefixes are one run of the group, and
        those bound for one child are one run of that run; every other key
        climbs to the father.  Each run goes on as one group with the
        node's ``hops + 1`` — on this peer as a loop, to another peer as
        one message, a :class:`~repro.dlpt.messages.DiscoveryRequest` when
        it holds one key."""
        nodes = peer.nodes
        pid = peer.id
        reply_to = msg.reply_to
        send = self.transport.send
        reply = m.DiscoveryReply
        work = [(nodes[msg.node], msg.keys, msg.hops)]
        while work:
            p, keys, hops = work.pop()
            label = p.label
            kids = p.children
            n = len(keys)
            steps = []
            i = lo = bisect_left(keys, label)
            while i < n:
                k = keys[i]
                if not k.startswith(label):
                    break
                i += 1
                if k == label:
                    send(pid, reply_to, reply(k, True, tuple(p.data), hops))
                    continue
                j = bisect_right(kids, k)
                if not (j and k.startswith(kids[j - 1])):
                    send(pid, reply_to, reply(k, False, (), hops))
                    continue
                kid = kids[j - 1]
                start = i - 1
                while i < n and keys[i].startswith(kid):
                    i += 1
                steps.append((kid, keys[start:i]))
            if lo or i < n:
                up = keys if i == lo else keys[:lo] + keys[i:]
                father = p.father
                if father is None:
                    for k in up:
                        send(pid, reply_to, reply(k, False, (), hops))
                else:
                    steps.append((father, up))
            hops += 1
            for nxt, group in steps:
                q = nodes.get(nxt)
                if len(group) == 1:
                    request = m.DiscoveryRequest(nxt, group[0], reply_to, hops)
                    if q is None:
                        self.send_to_node(pid, nxt, request)
                    else:
                        self._on_discovery(peer, request)
                elif q is None:
                    self.send_to_node(pid, nxt, m.DiscoveryBatch(nxt, group, reply_to, hops))
                else:
                    work.append((q, group, hops))

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
            # One scan visit at ``p``: collect its label if filled and in band,
            # push its in-band children.  Under a prefix scan's root all are;
            # a range's are those ``<= hi`` from the first ``>= lo``, or from
            # the one before it if it prefixes ``lo`` (at most one child can).
            if p.data and (prefix or lo <= p.label <= hi):
                keys.append(p.label)
            kids = p.children
            if kids:
                if not prefix and (kids[0] < lo or kids[-1] > hi):
                    a = bisect_left(kids, lo)
                    if a and lo.startswith(kids[a - 1]):
                        a -= 1
                    kids = kids[a:bisect_right(kids, hi)]
                pending += kids[::-1]
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
        # (kind, lo, hi, keys, hops)
        reply = m.SetQueryReply(msg.kind, msg.lo, msg.hi, tuple(sorted(keys)), hops)
        self.transport.send(peer.id, msg.reply_to, reply)

    # ------------------------------------------------------------------
    # verification helpers
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Run a :class:`~repro.net.transport.SimTransport`'s event heap
        until the protocol quiesces (synchronous; under an asyncio
        transport, ``await transport.drain()``)."""
        runner = getattr(self.transport, "run_until_idle", None)
        if runner is None:
            raise RuntimeError(
                "run() needs a SimTransport; under an asyncio transport "
                "use `await transport.drain()`"
            )
        runner()

    def tree_edges(self) -> set[tuple[str, str]]:
        """(father, child) pairs as recorded on the hosting peers."""
        nodes = (st for peer in self.peers.values() for st in peer.nodes.values())
        return {(st.label, c) for st in nodes for c in st.children}

    def node_labels(self) -> set[str]:
        return set(self.locator)

    def check_ring(self) -> None:
        """Ring pointers form a single consistent cycle in id order."""
        ids = self.live_ids()
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
        ids = self.live_ids()
        for label, host in self.locator.items():
            i = bisect_left(ids, label)
            expected = ids[i] if i < len(ids) else ids[0]
            assert host == expected, (
                f"node {label!r} on {host!r}, mapping rule wants {expected!r}"
            )
            assert label in self.peers[host].nodes

    def check_tree(self) -> None:
        """Father/child links are mutually consistent and acyclic, the
        PGCP labelling discipline holds, and every record's children are a
        sorted, duplicate-free tuple of labels."""
        states: Dict[str, NodeState] = {}
        for peer in self.peers.values():
            for lbl, st in peer.nodes.items():
                assert lbl not in states, f"node {lbl!r} hosted twice"
                states[lbl] = st
        roots = [st for st in states.values() if st.father is None]
        assert len(roots) == (1 if states else 0), f"{len(roots)} roots"
        for st in states.values():
            kids = st.children
            assert type(kids) is tuple, f"children of {st.label!r} are not a tuple: {kids!r}"
            assert all(type(c) is str for c in kids), f"a child of {st.label!r} is no label"
            assert all(a < b for a, b in zip(kids, kids[1:])), (
                f"children of {st.label!r} are not sorted and unique: {kids!r}"
            )
            for c in kids:
                assert c.startswith(st.label), f"child {c!r} does not extend {st.label!r}"
                assert c != st.label, f"node {st.label!r} is its own child"
                assert c in states, f"dangling child {c!r} of {st.label!r}"
                assert states[c].father == st.label, (
                    f"child {c!r} thinks father is {states[c].father!r}, "
                    f"not {st.label!r}"
                )
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
    m.DiscoveryBatch: ProtocolEngine._on_discovery_batch,
    m.SetQueryRequest: ProtocolEngine._on_set_query,
}
