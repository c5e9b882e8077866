"""Shared hypothesis strategies for the property-test suites.

One home for the input generators the equivalence suites
(``tests/dlpt/test_discovery_equivalence.py``) and the runtime suites
(``tests/net/``) draw from, so "a random PGCP workload" means the same
thing everywhere: keys and peer ids over the small ``abc`` alphabet
(dense shared prefixes → deep trees at tiny sizes), request mixes that
cover registered keys, absent extensions, absent prefixes and foreign
keys, and wire-encodable protocol messages for codec round-trips.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.alphabet import Alphabet
from repro.core.queries import (
    ExactQuery,
    MultiAttributeQuery,
    PrefixQuery,
    RangeQuery,
)
from repro.dlpt import messages as m

#: The three-digit alphabet every equivalence suite builds trees over.
ALPHABET = Alphabet(digits=("a", "b", "c"), name="abc")

#: Service-key corpora: short strings over "abc", duplicates allowed
#: (re-registration must be equivalent too).
keys_st = st.lists(
    st.text(alphabet="abc", min_size=1, max_size=8), min_size=1, max_size=25
)

#: Peer-identifier sets: unique, same id space as the keys.
peer_ids_st = st.lists(
    st.text(alphabet="abc", min_size=2, max_size=6),
    min_size=2,
    max_size=8,
    unique=True,
)

#: Larger peer pools for fault suites that need crash survivors.
peer_ids_min3_st = st.lists(
    st.text(alphabet="abc", min_size=2, max_size=6),
    min_size=3,
    max_size=8,
    unique=True,
)


def request_mixes(keys, labels, n: int = 60) -> st.SearchStrategy:
    """``n`` ``(key, entry_label)`` request pairs over a built tree.

    Every fifth request is perturbed the way the original hand-rolled
    mixer did: an absent extension below a (possible) leaf, a
    possibly-absent prefix, or a key outside the dense bands — so the
    mix exercises hits, misses above, misses below and misses sideways.
    """
    keys = sorted(set(keys))
    labels = sorted(labels)

    def perturb(draws):
        requests = []
        for i, (key, label) in enumerate(draws):
            if i % 5 == 1:
                key = key + "ab"  # absent below a leaf
            elif i % 5 == 2 and len(key) > 1:
                key = key[:-1]  # possibly-absent prefix
            elif i % 5 == 3:
                key = "cc" + key  # likely outside dense bands
            requests.append((key, label))
        return requests

    pairs = st.tuples(st.sampled_from(keys), st.sampled_from(labels))
    return st.lists(pairs, min_size=n, max_size=n).map(perturb)


def entry_labels(labels, n: int) -> st.SearchStrategy:
    """``n`` request entry points drawn from a built tree's labels."""
    return st.lists(st.sampled_from(sorted(labels)), min_size=n, max_size=n)


# -- set queries over a built tree (for the oracle differential suites) ----


def prefix_queries(keys) -> st.SearchStrategy:
    """Prefix completions anchored on registered keys (non-empty answers
    are common) plus the occasional foreign prefix (empty answers)."""
    keys = sorted(set(keys))
    anchored = st.builds(
        lambda key, n: PrefixQuery(key[: max(1, n % (len(key) + 1))]),
        st.sampled_from(keys),
        st.integers(0, 8),
    )
    foreign = st.text(alphabet="abc", min_size=1, max_size=6).map(PrefixQuery)
    return st.one_of(anchored, anchored, foreign)


def range_queries(keys) -> st.SearchStrategy:
    """Lexicographic ranges whose bounds straddle the registered corpus:
    spans of the sorted key list (crossing subtree — and, on a damaged
    forest, fragment — boundaries) plus arbitrary sorted bound pairs."""
    keys = sorted(set(keys))

    def span(lo_i: int, width: int) -> RangeQuery:
        lo = keys[lo_i % len(keys)]
        hi = keys[min(lo_i % len(keys) + width, len(keys) - 1)]
        return RangeQuery(min(lo, hi), max(lo, hi))

    spans = st.builds(span, st.integers(0, 200), st.integers(0, 12))
    arbitrary = st.builds(
        lambda a, b: RangeQuery(min(a, b), max(a, b)),
        st.text(alphabet="abc", min_size=1, max_size=6),
        st.text(alphabet="abc", min_size=1, max_size=6),
    )
    return st.one_of(spans, spans, arbitrary)


def set_queries(keys) -> st.SearchStrategy:
    """Any single-attribute set query over a registered corpus."""
    keys = sorted(set(keys))
    return st.one_of(
        prefix_queries(keys),
        range_queries(keys),
        st.sampled_from(keys).map(ExactQuery),
    )


def multi_attribute_queries(attributes) -> st.SearchStrategy:
    """Conjunctions over ``attributes`` — a mapping of attribute name to
    the values registered for it (via :func:`attribute_key`)."""
    clause_sts = {
        attr: st.one_of(
            st.sampled_from(sorted(values)).map(ExactQuery),
            st.builds(
                lambda v, n: PrefixQuery(v[: max(1, n % (len(v) + 1))]),
                st.sampled_from(sorted(values)),
                st.integers(0, 8),
            ),
            st.builds(
                lambda a, b: RangeQuery(min(a, b), max(a, b)),
                st.sampled_from(sorted(values)),
                st.sampled_from(sorted(values)),
            ),
        )
        for attr, values in attributes.items()
    }
    names = sorted(attributes)
    return (
        st.lists(st.sampled_from(names), min_size=1, unique=True)
        .flatmap(
            lambda chosen: st.fixed_dictionaries(
                {attr: clause_sts[attr] for attr in chosen}
            )
        )
        .map(MultiAttributeQuery)
    )


# -- wire-encodable protocol messages (for codec round-trip properties) ----

_label_st = st.text(alphabet="abc", min_size=1, max_size=8)
_datum_st = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.text(max_size=12),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)

node_states_st = st.builds(
    m.NodeState,
    label=_label_st,
    father=st.one_of(st.none(), _label_st),
    children=st.sets(_label_st, max_size=4).map(sorted).map(tuple),
    data=st.sets(_datum_st, max_size=3),
)

_labels_tuple_st = st.lists(_label_st, max_size=4).map(tuple)

#: One builder per wire-encodable dataclass, keyed by type name.  The
#: codec suite asserts this registry covers ``MESSAGE_TYPES`` exactly, so
#: adding a message type without a round-trip generator fails loudly.
wire_message_builders = {
    "PeerJoin": st.builds(
        m.PeerJoin,
        node=_label_st,
        joiner=_label_st,
        state=st.sampled_from([0, 1]),
        capacity=st.integers(1, 100),
    ),
    "NewPredecessor": st.builds(
        m.NewPredecessor, joiner=_label_st, capacity=st.integers(1, 100)
    ),
    "YourInformation": st.builds(
        m.YourInformation,
        pred=_label_st,
        succ=_label_st,
        nodes=st.lists(node_states_st, max_size=3).map(tuple),
    ),
    "UpdateSuccessor": st.builds(m.UpdateSuccessor, new_successor=_label_st),
    "LeaveTransfer": st.builds(
        m.LeaveTransfer,
        pred=_label_st,
        nodes=st.lists(node_states_st, max_size=3).map(tuple),
    ),
    "DataInsertion": st.builds(
        m.DataInsertion, node=_label_st, key=_label_st, datum=_datum_st
    ),
    "SearchingHost": st.builds(m.SearchingHost, node=_label_st, payload=node_states_st),
    "Host": st.builds(m.Host, payload=node_states_st),
    "UpdateChild": st.builds(m.UpdateChild, node=_label_st, old=_label_st, new=_label_st),
    "DiscoveryRequest": st.builds(
        m.DiscoveryRequest,
        node=_label_st,
        key=_label_st,
        reply_to=_label_st,
        hops=st.integers(0, 50),
    ),
    "DiscoveryBatch": st.builds(
        m.DiscoveryBatch,
        node=_label_st,
        keys=_labels_tuple_st,
        reply_to=_label_st,
        hops=st.integers(0, 50),
    ),
    "DiscoveryReply": st.builds(
        m.DiscoveryReply,
        key=_label_st,
        found=st.booleans(),
        data=st.lists(_datum_st, max_size=3).map(tuple),
        hops=st.integers(0, 50),
    ),
    "SetQueryRequest": st.builds(
        m.SetQueryRequest,
        node=_label_st,
        kind=st.sampled_from(["prefix", "range"]),
        lo=_label_st,
        hi=st.one_of(st.just(""), _label_st),
        reply_to=_label_st,
        phase=st.sampled_from([0, 1]),
        pending=_labels_tuple_st,
        keys=_labels_tuple_st,
        hops=st.integers(0, 50),
    ),
    "SetQueryReply": st.builds(
        m.SetQueryReply,
        kind=st.sampled_from(["prefix", "range"]),
        lo=_label_st,
        hi=st.one_of(st.just(""), _label_st),
        keys=_labels_tuple_st,
        hops=st.integers(0, 50),
    ),
}

#: Any protocol message the ``repro-wire/1`` codec must round-trip.
wire_messages_st = st.one_of(*wire_message_builders.values())
