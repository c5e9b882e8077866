"""Query model for service discovery.

The paper motivates trie overlays by the search flexibility they provide:
exact match, *automatic completion of partial search strings*, *range
queries*, and an easy extension to *multi-attribute queries* (Section 1).
This module defines those query types as small immutable objects with a
``matches(key)`` predicate; executing them against a tree (reference or
distributed) is the responsibility of the tree / service layer.

:func:`parse_query` builds a query from a compact spec (string or dict)
and validates it — including every identifier against the configured
:class:`~repro.core.alphabet.Alphabet` — at *parse* time, raising
:class:`QuerySpecError`.  Before this existed an out-of-alphabet range
bound only failed deep inside the tree walk; now no executor ever sees an
invalid query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from ..util.specs import SpecError


@dataclass(frozen=True)
class ExactQuery:
    """Find the service registered under exactly ``key``."""

    key: str

    def matches(self, key: str) -> bool:
        return key == self.key

    def describe(self) -> str:
        return f"exact:{self.key}"


@dataclass(frozen=True)
class PrefixQuery:
    """Automatic completion: all keys starting with ``prefix``."""

    prefix: str

    def matches(self, key: str) -> bool:
        return key.startswith(self.prefix)

    def describe(self) -> str:
        return f"prefix:{self.prefix}*"


@dataclass(frozen=True)
class RangeQuery:
    """All keys ``lo <= key <= hi`` in lexicographic order."""

    lo: str
    hi: str

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty range: lo={self.lo!r} > hi={self.hi!r}")

    def matches(self, key: str) -> bool:
        return self.lo <= key <= self.hi

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
        out: dict[str, SingleAttributeQuery] = {}
        for attr, q in self.clauses.items():
            prefix = attr + ATTR_SEP
            if isinstance(q, ExactQuery):
                out[attr] = ExactQuery(prefix + q.key)
            elif isinstance(q, PrefixQuery):
                out[attr] = PrefixQuery(prefix + q.prefix)
            elif isinstance(q, RangeQuery):
                out[attr] = RangeQuery(prefix + q.lo, prefix + q.hi)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unsupported clause type {type(q)!r}")
        return out

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
    no alphabet in scope, e.g. the wire broker).
    """
    if isinstance(query, MultiAttributeQuery):
        # Rebasing exercises the clause kinds; validating the rebased keys
        # covers the attribute names (and the ``=`` separator) too.
        for sub in query.attribute_queries().values():
            validate_query(sub, alphabet)
        return query
    if alphabet is None:
        return query
    try:
        if isinstance(query, ExactQuery):
            alphabet.validate(query.key)
        elif isinstance(query, PrefixQuery):
            if query.prefix:  # the empty prefix (match everything) is legal
                alphabet.validate(query.prefix)
        elif isinstance(query, RangeQuery):
            alphabet.validate(query.lo)
            alphabet.validate(query.hi)
        else:
            raise QuerySpecError(f"unsupported query type {type(query).__name__}")
    except QuerySpecError:
        raise
    except ValueError as exc:
        raise QuerySpecError(f"{query.describe()}: {exc}") from None
    return query


def _single_from_string(spec: str) -> SingleAttributeQuery:
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise QuerySpecError(
            f"query spec {spec!r} has no ':' — expected exact:KEY, "
            "prefix:PARTIAL or range:LO:HI"
        )
    if kind == "exact":
        return ExactQuery(rest)
    if kind == "prefix":
        return PrefixQuery(rest)
    if kind == "range":
        lo, sep, hi = rest.partition(":")
        if not sep:
            raise QuerySpecError(f"range spec {spec!r} needs two bounds: range:LO:HI")
        try:
            return RangeQuery(lo, hi)
        except ValueError as exc:
            raise QuerySpecError(f"range spec {spec!r}: {exc}") from None
    raise QuerySpecError(f"unknown query kind {kind!r} in {spec!r}")


def _single_from_dict(spec: dict) -> SingleAttributeQuery:
    kind = spec.get("kind")
    try:
        if kind == "exact":
            return ExactQuery(str(spec["key"]))
        if kind == "prefix":
            return PrefixQuery(str(spec["prefix"]))
        if kind == "range":
            return RangeQuery(str(spec["lo"]), str(spec["hi"]))
    except KeyError as exc:
        raise QuerySpecError(f"query spec {spec!r} is missing field {exc}") from None
    except ValueError as exc:
        raise QuerySpecError(f"query spec {spec!r}: {exc}") from None
    raise QuerySpecError(f"unknown query kind {kind!r} in {spec!r}")


def parse_query(spec, alphabet=None) -> Query:
    """Build a query from a compact spec and validate it *now*.

    ``spec`` may be an existing query object, a string (``"exact:KEY"``,
    ``"prefix:PARTIAL"``, ``"range:LO:HI"`` — safe because no stock
    alphabet contains ``:``), or a dict (``{"kind": "range", "lo": ...,
    "hi": ...}``; multi-attribute queries use ``{"kind": "multi",
    "clauses": {attr: subspec}}``).  Passing the configured
    :class:`~repro.core.alphabet.Alphabet` moves bound validation to parse
    time: a malformed or out-of-alphabet spec raises
    :class:`QuerySpecError` here instead of failing mid-walk.
    """
    if isinstance(spec, (ExactQuery, PrefixQuery, RangeQuery, MultiAttributeQuery)):
        return validate_query(spec, alphabet)
    if isinstance(spec, str):
        return validate_query(_single_from_string(spec), alphabet)
    if isinstance(spec, dict):
        if spec.get("kind") == "multi":
            clauses = spec.get("clauses")
            if not isinstance(clauses, Mapping) or not clauses:
                raise QuerySpecError(
                    f"multi query spec {spec!r} needs a non-empty 'clauses' mapping"
                )
            parsed = {}
            for attr, sub in clauses.items():
                if isinstance(sub, str):
                    parsed[attr] = _single_from_string(sub)
                elif isinstance(sub, dict):
                    parsed[attr] = _single_from_dict(sub)
                else:
                    raise QuerySpecError(
                        f"clause {attr!r}: unsupported sub-spec {sub!r}"
                    )
            try:
                query: Query = MultiAttributeQuery(parsed)
            except ValueError as exc:  # pragma: no cover - guarded above
                raise QuerySpecError(str(exc)) from None
            return validate_query(query, alphabet)
        return validate_query(_single_from_dict(spec), alphabet)
    raise QuerySpecError(f"unsupported query spec type {type(spec).__name__}")

