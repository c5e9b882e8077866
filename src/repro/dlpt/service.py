"""DiscoveryService — the public facade of the DLPT overlay.

This is the API a grid middleware would program against: register services
under string keys (optionally with multiple attributes), then discover them
by exact name, by partial-string completion, by lexicographic range, or by a
conjunction of attribute constraints — the search modes the paper credits
trie overlays with (Section 1).

Exact discovery goes through the full routed/capacity-accounted path of
:class:`~repro.dlpt.system.DLPTSystem` (what the figures measure): a
single request walks its route, while batches go through the route index.
The set-returning searches (completion / range / multi-attribute) ride
the same routed path via :meth:`DLPTSystem.search` — climb to the join
with the band's spine, descend to the scan root, fan out over the scan
subtree, charge every scanned node's host — and
:meth:`DiscoveryService.execute` exposes the full
:class:`~repro.dlpt.routing.QueryOutcome` (hop counts, scan size,
capacity verdict) for callers that need more than the name list.  That is
also the one cost model of a completion:
``execute(PrefixQuery(p), entry_label=e).logical_hops``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..core.queries import (
    ExactQuery,
    MultiAttributeQuery,
    PrefixQuery,
    RangeQuery,
    SingleAttributeQuery,
    attribute_key,
)
from .routing import QueryOutcome, RequestOutcome
from .system import DLPTSystem


@dataclass(frozen=True)
class ServiceRecord:
    """One registered service: a primary key plus optional attributes."""

    name: str
    attributes: Mapping[str, str] = field(default_factory=dict)


class DiscoveryService:
    """High-level register/discover API over a :class:`DLPTSystem`."""

    def __init__(self, system: DLPTSystem) -> None:
        self.system = system
        self._records: Dict[str, ServiceRecord] = {}

    # -- registration ------------------------------------------------------

    def register(self, name: str, attributes: Optional[Mapping[str, str]] = None) -> ServiceRecord:
        """Register a service.  The primary name becomes a tree key; each
        attribute is additionally registered under ``attr=value`` so that
        multi-attribute queries can be answered by intersection."""
        record = ServiceRecord(name=name, attributes=dict(attributes or {}))
        self.system.register(name, datum=name)
        for attr, value in record.attributes.items():
            self.system.register(attribute_key(attr, value), datum=name)
        self._records[name] = record
        return record

    def unregister(self, name: str) -> bool:
        record = self._records.pop(name, None)
        if record is None:
            return False
        self.system.unregister(name, datum=name)
        for attr, value in record.attributes.items():
            self.system.unregister(attribute_key(attr, value), datum=name)
        return True

    def record(self, name: str) -> Optional[ServiceRecord]:
        return self._records.get(name)

    def __len__(self) -> int:
        return len(self._records)

    # -- discovery ----------------------------------------------------------

    def discover(self, name: str, rng=None, entry_label: Optional[str] = None) -> RequestOutcome:
        """Exact discovery through the routed, capacity-accounted path."""
        return self.system.discover(name, entry_label=entry_label, rng=rng)

    def execute(
        self,
        query,
        entry_label: Optional[str] = None,
        rng=None,
    ) -> QueryOutcome:
        """Run any query (object or spec) through the routed,
        capacity-accounted path and return the full outcome — result set,
        hop counts, scan size and the capacity verdict."""
        return self.system.search(query, entry_label=entry_label, rng=rng)

    def _primary_names(self, query, entry_label: Optional[str], rng) -> list[str]:
        """The registered primary names among a routed query's results
        (attribute keys and foreign data share the tree)."""
        outcome = self.execute(query, entry_label, rng)
        return [k for k in outcome.results if k in self._records]

    def complete(
        self, partial: str, entry_label: Optional[str] = None, rng=None
    ) -> list[str]:
        """All registered primary names extending ``partial`` (automatic
        completion of partial search strings), served by the routed scan."""
        return self._primary_names(PrefixQuery(partial), entry_label, rng)

    def range_search(
        self, lo: str, hi: str, entry_label: Optional[str] = None, rng=None
    ) -> list[str]:
        """Registered primary names within the lexicographic range."""
        return self._primary_names(RangeQuery(lo, hi), entry_label, rng)

    def search(
        self,
        query: SingleAttributeQuery,
        entry_label: Optional[str] = None,
        rng=None,
    ) -> list[str]:
        """Evaluate a single query object against primary names."""
        if isinstance(query, (ExactQuery, PrefixQuery, RangeQuery)):
            return self._primary_names(query, entry_label, rng)
        raise TypeError(f"unsupported query type {type(query)!r}")

    def multi_attribute_search(
        self,
        query: MultiAttributeQuery,
        entry_label: Optional[str] = None,
        rng=None,
    ) -> list[str]:
        """Conjunction over attributes: intersect per-attribute matches.

        Each clause is evaluated as a routed scan in its ``attr=value`` key
        band; the data stored there are primary service names, so the
        intersection of the per-clause result sets — what
        :meth:`DLPTSystem.search` returns for a multi-attribute query — is
        exactly the conjunctive answer.
        """
        return self._primary_names(query, entry_label, rng)
