"""Query model for service discovery.

The paper motivates trie overlays by the search flexibility they provide:
exact match, *automatic completion of partial search strings*, *range
queries*, and an easy extension to *multi-attribute queries* (Section 1).
This module defines those query types as small immutable objects with a
``matches(key)`` predicate; executing them against a tree (reference or
distributed) is the responsibility of the tree / service layer.

:func:`parse_query` builds a query from a compact spec and validates it —
including every identifier against the configured
:class:`~repro.core.alphabet.Alphabet` — at *parse* time, raising
:class:`QuerySpecError`, so no executor ever sees an invalid query.  The
spec forms are one table of the shared grammar
(:class:`repro.util.specs.Grammar`), :data:`QUERY_SPECS`: a string
``exact:KEY`` / ``prefix:PARTIAL`` / ``range:LO:HI``, a dict naming the
same fields (``{"kind": "range", "lo": ..., "hi": ...}``) or ``{"kind":
"multi", "clauses": {attr: subspec}}``.  A trace event ``[kind, *fields,
entry]`` (:mod:`repro.workloads.queries`) is the positional form of the
same single-kind rows, :data:`SINGLE_QUERY_SPECS`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional, Tuple, Union

from ..util.specs import Grammar, Kind, SpecError
from .ids import gcp


class _Identifiers:
    """What the single-attribute kinds share: every field is an identifier,
    so one walk over the fields checks, validates (:func:`validate_query`)
    and rebases them.  Each kind also names the band it scans, ``band() ->
    (anchor, lo, hi)``: ``None`` bounds mean every label under the anchor.
    """

    def __post_init__(self) -> None:
        for value in self.identifiers():
            if not isinstance(value, str):
                raise TypeError(f"{type(self).__name__} takes identifier strings, not {value!r}")

    def identifiers(self) -> Tuple[str, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def rebased(self, prefix: str):
        """The same query over the keys ``prefix + key``."""
        return type(self)(*(prefix + value for value in self.identifiers()))


@dataclass(frozen=True)
class ExactQuery(_Identifiers):
    """Find the service registered under exactly ``key``."""

    key: str

    def matches(self, key: str) -> bool:
        return key == self.key

    def band(self) -> Tuple[str, str, str]:
        return self.key, self.key, self.key

    def describe(self) -> str:
        return f"exact:{self.key}"


@dataclass(frozen=True)
class PrefixQuery(_Identifiers):
    """Automatic completion: all keys starting with ``prefix``."""

    prefix: str

    def matches(self, key: str) -> bool:
        return key.startswith(self.prefix)

    def band(self) -> Tuple[str, None, None]:
        return self.prefix, None, None

    def describe(self) -> str:
        return f"prefix:{self.prefix}*"


@dataclass(frozen=True)
class RangeQuery(_Identifiers):
    """All keys ``lo <= key <= hi`` in lexicographic order."""

    lo: str
    hi: str

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lo > self.hi:
            raise ValueError(f"empty range: lo={self.lo!r} > hi={self.hi!r}")

    def matches(self, key: str) -> bool:
        return self.lo <= key <= self.hi

    def band(self) -> Tuple[str, str, str]:
        return gcp(self.lo, self.hi), self.lo, self.hi

    def describe(self) -> str:
        return f"range:[{self.lo},{self.hi}]"


SingleAttributeQuery = Union[ExactQuery, PrefixQuery, RangeQuery]

#: Separator between an attribute name and its value in composed keys.
ATTR_SEP = "="


def attribute_key(attribute: str, value: str) -> str:
    """Compose the key registered in the tree for one attribute of a service.

    Multi-attribute support (paper Section 1: trie overlays "are easy to
    extend to multi-attribute queries") is realised by registering each
    service once per attribute under ``attribute=value`` and intersecting
    per-attribute results at query time.
    """
    if ATTR_SEP in attribute:
        raise ValueError(f"attribute name may not contain {ATTR_SEP!r}")
    return f"{attribute}{ATTR_SEP}{value}"


@dataclass(frozen=True)
class MultiAttributeQuery:
    """Conjunction of per-attribute sub-queries.

    ``clauses`` maps attribute name to the sub-query its value must satisfy.
    A service matches when *all* clauses match.
    """

    clauses: Mapping[str, SingleAttributeQuery]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("multi-attribute query needs at least one clause")

    def attribute_queries(self) -> dict[str, SingleAttributeQuery]:
        """The sub-query to run against each attribute's key band, rebased
        onto composed ``attribute=value`` keys."""
        return {attr: q.rebased(attr + ATTR_SEP) for attr, q in self.clauses.items()}

    def describe(self) -> str:
        inner = ", ".join(f"{a}~{q.describe()}" for a, q in sorted(self.clauses.items()))
        return f"multi:{{{inner}}}"


Query = Union[SingleAttributeQuery, MultiAttributeQuery]


class QuerySpecError(SpecError):
    """A query spec is malformed or names identifiers outside the alphabet."""


def validate_query(query: Query, alphabet=None) -> Query:
    """Check every identifier a query names against ``alphabet``.

    Returns the query unchanged when valid; raises :class:`QuerySpecError`
    otherwise.  With ``alphabet=None`` only the structural constraints
    already enforced by the dataclasses hold (useful for layers that have
    no alphabet in scope, e.g. the wire broker).  The empty identifier is
    valid under every alphabet, so ``prefix:`` (match everything) is too.
    """
    if isinstance(query, MultiAttributeQuery):
        # Validating the rebased keys covers the attribute names (and the
        # ``=`` separator) too.
        for sub in query.attribute_queries().values():
            validate_query(sub, alphabet)
    elif alphabet is not None:
        try:
            for identifier in query.identifiers():
                alphabet.validate(identifier)
        except ValueError as exc:
            raise QuerySpecError(f"{query.describe()}: {exc}") from None
    return query


#: The single-attribute kinds, one row each: a spec string's positional
#: tokens are the record's fields (identifiers: text, never numbers), and
#: a trace event ``[kind, *fields, entry]`` is the same row's positional
#: form (:func:`repro.workloads.queries.query_from_event`).
SINGLE_QUERY_SPECS = Grammar("query spec", QuerySpecError, {
    "exact": Kind(ExactQuery, "key", 1, ("key",)),
    "prefix": Kind(PrefixQuery, "prefix", 1, ("prefix",)),
    "range": Kind(RangeQuery, "lo:hi", 2, ("lo", "hi")),
})


def _multi(clauses: Optional[Mapping] = None) -> MultiAttributeQuery:
    """The ``multi`` kind: each clause parses through the single-kind rows,
    so a nested ``multi`` is refused."""
    if not isinstance(clauses, Mapping):
        raise ValueError("a multi query needs a 'clauses' mapping")
    return MultiAttributeQuery(
        {attr: SINGLE_QUERY_SPECS.parse(sub) for attr, sub in clauses.items()}
    )


#: Every query kind: the single-attribute rows and ``multi``.
QUERY_SPECS = Grammar("query spec", QuerySpecError,
                      {**SINGLE_QUERY_SPECS.kinds, "multi": Kind(_multi)})


def parse_query(spec, alphabet=None) -> Query:
    """Build a query from a compact spec and validate it *now*.

    ``spec`` may be an existing query object, a string (``"exact:KEY"``,
    ``"prefix:PARTIAL"``, ``"range:LO:HI"``) or a dict naming the same
    fields (``{"kind": "range", "lo": ..., "hi": ...}``; multi-attribute
    queries use ``{"kind": "multi", "clauses": {attr: subspec}}``).  A
    string's tokens split at ``:`` and a token holding ``=`` is an option,
    so a key holding either needs the dict form.  Passing the configured
    :class:`~repro.core.alphabet.Alphabet` moves bound validation to parse
    time: a malformed or out-of-alphabet spec raises
    :class:`QuerySpecError` here instead of failing mid-walk.
    """
    if not isinstance(spec, (_Identifiers, MultiAttributeQuery)):
        spec = QUERY_SPECS.parse(spec)
    return validate_query(spec, alphabet)
