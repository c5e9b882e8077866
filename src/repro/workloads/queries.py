"""Set-query workloads: the ``queries:`` axis of an experiment.

Discovery traffic (:mod:`repro.workloads.requests`) asks for exact keys;
this module generates the *set queries* the trie overlay additionally
serves — prefix completions, lexicographic ranges and exact probes — as a
per-unit stream riding alongside the request stream.  A
:class:`QueryWorkload` is parsed from a compact spec
(``ExperimentConfig(queries=...)``), one table of the shared grammar
(:class:`repro.util.specs.Grammar`) whose every kind takes the options
``n``, ``len`` and ``span`` (a dict may also spell them ``n_per_unit``,
``prefix_len``, ``range_span``):

* ``"mixed"`` / ``"mixed:n=6"`` — cycle prefix → range → exact;
* ``"prefix:n=4:len=2"`` — completions of length-``len`` prefixes of
  registered keys;
* ``"range:n=4:span=16"`` — ranges covering about ``span`` consecutive
  registered keys;
* ``"exact:n=2"`` — exact probes through the scan path.

Sampled events serialise into ``repro-trace/1`` units as JSON-able lists —
``["prefix", prefix, entry]``, ``["range", lo, hi, entry]``,
``["exact", key, entry]`` — so a recorded query stream replays verbatim.
An event is the positional form of its kind's row in the set-query table
(:data:`repro.core.queries.SINGLE_QUERY_SPECS`), which builds and checks
it on load (:func:`parse_query_event`) and on replay
(:func:`query_from_event`).  Every parse failure raises
:class:`~repro.core.queries.QuerySpecError` at config or trace-load time,
never mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..core.queries import SINGLE_QUERY_SPECS, Query, QuerySpecError
from ..util.specs import Grammar, Kind, register_spec_kind

#: Query-workload spec kinds.
QUERY_KINDS = ("mixed", "prefix", "range", "exact")

#: The cycle order of ``kind="mixed"``.
_MIXED_CYCLE = ("prefix", "range", "exact")


@dataclass(frozen=True)
class QueryWorkload:
    """The per-unit set-query plan of one experiment.

    ``n_per_unit`` queries are drawn each time unit from the registered
    keys: ``prefix_len`` bounds the completion prefixes, ``range_span`` is
    the target number of consecutive registered keys a range covers.
    """

    kind: str = "mixed"
    n_per_unit: int = 4
    prefix_len: int = 2
    range_span: int = 16

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise QuerySpecError(
                f"unknown query kind {self.kind!r} "
                f"(known kinds: {', '.join(QUERY_KINDS)})"
            )
        for value in (self.n_per_unit, self.prefix_len, self.range_span):
            if isinstance(value, bool) or not isinstance(value, int):
                raise QuerySpecError(f"query workload needs integer n, len, span: {value!r}")
        if self.n_per_unit < 1:
            raise QuerySpecError("query workload needs n >= 1")
        if self.prefix_len < 0:
            raise QuerySpecError("query workload needs len >= 0")
        if self.range_span < 1:
            raise QuerySpecError("query workload needs span >= 1")

    def _kind_at(self, i: int) -> str:
        if self.kind == "mixed":
            return _MIXED_CYCLE[i % len(_MIXED_CYCLE)]
        return self.kind

    def sample_unit(self, rng, available_keys: Sequence[str]) -> List[list]:
        """Draw this unit's query events (without entry labels): JSON-able
        ``["prefix", p]`` / ``["range", lo, hi]`` / ``["exact", k]`` lists
        over the currently registered keys."""
        if not available_keys:
            return []
        ordered = sorted(available_keys)
        events: List[list] = []
        for i in range(self.n_per_unit):
            kind = self._kind_at(i)
            if kind == "prefix":
                key = ordered[rng.randrange(len(ordered))]
                events.append(["prefix", key[: self.prefix_len]])
            elif kind == "range":
                lo_i = rng.randrange(len(ordered))
                hi_i = min(lo_i + self.range_span - 1, len(ordered) - 1)
                events.append(["range", ordered[lo_i], ordered[hi_i]])
            else:
                events.append(["exact", ordered[rng.randrange(len(ordered))]])
        return events


#: Query-event kinds and their payload arity in a trace record (the
#: kind's positional fields, then the entry label).
QUERY_EVENT_ARITY = {kind: len(SINGLE_QUERY_SPECS.positionals(kind)) + 1
                     for kind in SINGLE_QUERY_SPECS.kinds}


def query_from_event(event: Sequence) -> Tuple[Query, str]:
    """``(query object, entry label)`` of one trace event ``[kind, *fields,
    entry]``: the positional form of the kind's spec row, built through
    :data:`~repro.core.queries.SINGLE_QUERY_SPECS`.  Raises
    :class:`QuerySpecError` on anything malformed."""
    if not isinstance(event, (list, tuple)) or len(event) < 2 or not isinstance(event[-1], str):
        raise QuerySpecError(f"bad query event {event!r}: expected [kind, *fields, entry]")
    return SINGLE_QUERY_SPECS.build_positional(event[0], event[1:-1], event), event[-1]


def parse_query_event(event: Any) -> list:
    """Validate one trace query event (as :func:`query_from_event` reads
    it) and return it as a list."""
    query_from_event(event)
    return list(event)


#: The :class:`QueryWorkload` field names a dict may use for the spec's
#: short option names.
_FULL = {"n_per_unit": "n", "prefix_len": "len", "range_span": "span"}


def _plan(kind: str) -> Callable[..., QueryWorkload]:
    """The row of one query kind, taking the spec's short option names."""
    def build(n: int = QueryWorkload.n_per_unit, len: int = QueryWorkload.prefix_len,
              span: int = QueryWorkload.range_span) -> QueryWorkload:
        return QueryWorkload(kind, n, len, span)
    return build


_KINDS = Grammar("query spec", QuerySpecError, {kind: Kind(_plan(kind)) for kind in QUERY_KINDS})


def _parse_query_workload(spec: object) -> Optional[QueryWorkload]:
    """Build and validate a :class:`QueryWorkload` from any spec form (the
    ``"queries"`` kind of :func:`repro.util.specs.parse_spec`).

    Accepts ``None`` (no query axis), a spec string, a dict (short option
    names or QueryWorkload field names), or a ready :class:`QueryWorkload`.
    Raises :class:`QuerySpecError` naming the offending spec on any
    problem.
    """
    if spec is None or isinstance(spec, QueryWorkload):
        return spec
    kind, fields = _KINDS.fields(spec)
    return _KINDS.build(kind, {_FULL.get(k, k): v for k, v in fields.items()}, spec)


def queries_signature(plan: QueryWorkload) -> dict:
    """Canonical, JSON-serialisable identity of a query plan (the
    ``queries`` component of ``ExperimentConfig.signature()``)."""
    return {
        "kind": plan.kind,
        "n_per_unit": plan.n_per_unit,
        "prefix_len": plan.prefix_len,
        "range_span": plan.range_span,
    }


register_spec_kind("queries", _parse_query_workload, queries_signature)
