"""Protocol message types (paper Algorithms 1–3).

Every message the pseudo-code exchanges is a slotted dataclass here, and so
are the reads it leaves out — a discovery, a key batch walking the tree
once (:class:`DiscoveryBatch`) and a set query — and the
:class:`Envelope` every transport delivers them in.  Node-addressed
messages carry ``node`` — the label of the logical node they are for;
peer-addressed messages are delivered to a peer endpoint directly.

Messages are **values by convention**: compared by field (``==``), never
hashed (``__hash__`` is ``None``), and never assigned to after construction
— a handler that wants a changed message builds a new one.  The classes do
not enforce that (a frozen dataclass stores every field through
``object.__setattr__``, a per-construction tax on the one thing every hop
does); ``tests/net/test_message_values.py`` does, by encoding every payload
a live ring delivers before and after its handler runs and requiring equal
bytes.  ``slots=True`` drops the per-record ``__dict__`` and makes a stray
``msg.typo = …`` an ``AttributeError``.

The one exception is the node record, :class:`NodeState`.  It is the
state a peer keeps for a logical node *and* the thing that travels when
the node moves (``SearchingHost`` / ``Host`` / ``YourInformation`` /
``LeaveTransfer``), so it is mutable — and it is **handed over, never
shared**: its sender forgets it on send, and the receiver installs that
very object.  In one process a migration therefore copies nothing; across
processes (and on the loopback transport) the node arrives as the codec's
copy.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Hashable, Optional, Tuple


@dataclass(slots=True)
class Envelope:
    """A message in flight: source and destination endpoint ids + payload.
    A value by convention, like the messages it carries: built once per
    hop, never assigned to."""

    src: Hashable
    dst: Hashable
    payload: Any


@dataclass(slots=True)
class NodeState:
    """A logical node: label, father and children *labels* (everything
    crosses the wire by identifier, as in the paper) and its data.  The
    record its hosting peer keeps, and the one that travels when the node
    moves — handed over, never shared (module docstring).

    ``children`` is a sorted, duplicate-free tuple, and it is its own
    index: the descent steps of Algorithms 1 and 3 and a range scan's step
    are bisects on it, and a leaf holds the shared empty tuple instead of a
    container of its own.  It changes only through :meth:`add_child` and
    :meth:`replace_child`, which build a new tuple.
    """

    label: str
    father: Optional[str]
    children: Tuple[str, ...] = ()
    data: set[object] = field(default_factory=set)

    def add_child(self, label: str) -> None:
        """Insert ``label`` in order; a no-op if it is already a child."""
        if label not in self.children:
            self.children = tuple(sorted((*self.children, label)))

    def replace_child(self, old: str, new: str) -> None:
        """Swap a child label (``UpdateChild``) with set semantics: a
        missing ``old`` is tolerated, and ``new`` is never duplicated."""
        self.children = tuple(sorted({*self.children} - {old} | {new}))

    def max_child_leq(self, key: str) -> Optional[str]:
        """``Max({q ∈ C_p : q <= key})`` — the descent step of Algorithms
        1 and 3 (lines 1.12 and 3.33); one bisect on the children."""
        kids = self.children
        i = bisect.bisect_right(kids, key)
        return kids[i - 1] if i else None

    def child_sharing_longer_prefix(self, key: str) -> Optional[str]:
        """The child ``q`` with ``|GCP(k, q)| > |GCP(k, p)|`` of line 3.05;
        unique when it exists because children diverge right after the
        parent label — so the one candidate is the first child at or above
        ``key``'s next-digit probe in sorted order, and it shares more than
        ``|p|`` digits with ``key`` exactly when it starts with the probe."""
        depth = len(self.label)
        if len(key) <= depth:
            return None
        kids = self.children
        probe = key[: depth + 1]
        i = bisect.bisect_left(kids, probe)
        if i < len(kids) and kids[i].startswith(probe):
            return kids[i]
        return None


# -- Algorithm 1/2: peer insertion -----------------------------------------


@dataclass(slots=True)
class PeerJoin:
    """<PeerJoin, P, s> — routed through the tree (node-addressed).

    ``state`` 0 = upward phase, 1 = downward phase (paper lines 1.03/1.11).
    """

    node: str
    joiner: str
    state: int
    capacity: int = 10


@dataclass(slots=True)
class NewPredecessor:
    """<NewPredecessor, P> — peer-addressed; forwarded along successors
    until it reaches the joiner's future successor (Algorithm 2)."""

    joiner: str
    capacity: int


@dataclass(slots=True)
class YourInformation:
    """<YourInformation, (pred, succ, ν_P)> — everything the joiner needs
    to start operating (paper line 2.08 sends (Q_pred, Q, ν_P))."""

    pred: str
    succ: str
    nodes: Tuple[NodeState, ...]


@dataclass(slots=True)
class UpdateSuccessor:
    """<UpdateSuccessor, P> — tells the old predecessor its successor is
    now the joiner (paper line 2.09)."""

    new_successor: str


@dataclass(slots=True)
class LeaveTransfer:
    """<LeaveTransfer, (pred, ν_L)> — a gracefully departing peer hands its
    hosted nodes and its predecessor pointer to its successor.  (The paper
    models leaves in the simulation but gives no pseudo-code; this is the
    symmetric inverse of Algorithm 2's join split.)"""

    pred: str
    nodes: Tuple[NodeState, ...]


# -- Algorithm 3: data insertion --------------------------------------------


@dataclass(slots=True)
class DataInsertion:
    """<DataInsertion, k> — node-addressed registration request."""

    node: str
    key: str
    datum: object = None


@dataclass(slots=True)
class SearchingHost:
    """<SearchingHost, (l, f, C, δ)> — node-addressed; descends to the
    highest node lower than ``payload.label`` (paper lines 3.32–3.37)."""

    node: str
    payload: NodeState


@dataclass(slots=True)
class Host:
    """<Host, (l, f, C, δ)> — peer-addressed; instructs a peer to run the
    node.  Forwarded along ring successors until the mapping rule holds."""

    payload: NodeState


@dataclass(slots=True)
class UpdateChild:
    """<UpdateChild, (old, new)> — node-addressed child-set fix-up
    (paper lines 3.19/3.29)."""

    node: str
    old: str
    new: str


# -- discovery (Section 2 architecture; no pseudo-code in the paper) ---------


@dataclass(slots=True)
class DiscoveryRequest:
    """A client lookup entering the tree at ``node``, seeking ``key``.
    ``reply_to`` is the client endpoint for the response."""

    node: str
    key: str
    reply_to: str
    hops: int = 0


@dataclass(slots=True)
class DiscoveryBatch:
    """Several lookups walking the tree together, at ``node``: the sorted
    ``keys`` (duplicates kept, each answered on its own) whose walks all
    pass through that node.  A tree has one path from the entry to each
    node, so the keys share one ``hops``; the group forks where their
    next nodes differ, and a branch of one key travels as a
    :class:`DiscoveryRequest`."""

    node: str
    keys: Tuple[str, ...]
    reply_to: str
    hops: int = 0


@dataclass(slots=True)
class DiscoveryReply:
    """Response to a :class:`DiscoveryRequest` (one per key of a
    :class:`DiscoveryBatch`)."""

    key: str
    found: bool
    data: Tuple[object, ...] = ()
    hops: int = 0


@dataclass(slots=True)
class SetQueryRequest:
    """A set query (prefix completion or lexicographic range) walking the
    tree as a *scan token*: it climbs from its entry node to the node
    covering the query band's anchor, then traverses the scan subtree in
    DFS order, carrying the accumulated matches and the labels still to
    visit.  ``hops`` counts every step to a next node, so the reply's count
    equals the macro model's logical climb + descent + scan-forward
    accounting; the token travels as this message only when the next node
    lives on another peer (one per physical hop, plus the client's).

    ``kind`` is ``"prefix"`` or ``"range"``; for a prefix query ``lo`` is
    the prefix and ``hi`` is unused (``""``).  ``phase`` 0 = routing
    (climb/descend), 1 = scanning.
    """

    node: str
    kind: str
    lo: str
    hi: str
    reply_to: str
    phase: int = 0
    pending: Tuple[str, ...] = ()
    keys: Tuple[str, ...] = ()
    hops: int = 0


@dataclass(slots=True)
class SetQueryReply:
    """Response to a :class:`SetQueryRequest`: the sorted matched keys."""

    kind: str
    lo: str
    hi: str
    keys: Tuple[str, ...] = ()
    hops: int = 0
