"""Set-query workloads: the ``queries:`` axis of an experiment.

Discovery traffic (:mod:`repro.workloads.requests`) asks for exact keys;
this module generates the *set queries* the trie overlay additionally
serves — prefix completions, lexicographic ranges and exact probes — as a
per-unit stream riding alongside the request stream.  A
:class:`QueryWorkload` is parsed from a compact spec
(``ExperimentConfig(queries=...)``):

* ``"mixed"`` / ``"mixed:n=6"`` — cycle prefix → range → exact;
* ``"prefix:n=4:len=2"`` — completions of length-``len`` prefixes of
  registered keys;
* ``"range:n=4:span=16"`` — ranges covering about ``span`` consecutive
  registered keys;
* ``"exact:n=2"`` — exact probes through the scan path.

Sampled events serialise into ``repro-trace/1`` units as JSON-able lists —
``["prefix", prefix, entry]``, ``["range", lo, hi, entry]``,
``["exact", key, entry]`` — so a recorded query stream replays verbatim.
Every parse failure raises :class:`~repro.core.queries.QuerySpecError` at
config time, never mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.queries import (
    ExactQuery,
    PrefixQuery,
    Query,
    QuerySpecError,
    RangeQuery,
)
from ..util.specs import parse_options, register_spec_kind, split_spec

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


#: Query-event kinds and their string-payload arity in a trace record
#: (payload strings after the kind, including the entry label).
QUERY_EVENT_ARITY = {"prefix": 2, "range": 3, "exact": 2}


def parse_query_event(event: Any) -> list:
    """Coerce and validate one trace query event; raises
    :class:`QuerySpecError` on anything malformed."""
    event = list(event)
    if not event or event[0] not in QUERY_EVENT_ARITY:
        raise QuerySpecError(f"bad query event {event!r}")
    kind, payload = event[0], event[1:]
    if len(payload) != QUERY_EVENT_ARITY[kind]:
        raise QuerySpecError(f"query event {event!r}: wrong payload length")
    values = [str(v) for v in payload]
    if kind == "range" and values[0] > values[1]:
        raise QuerySpecError(f"query event {event!r}: empty range")
    return [kind] + values


def query_from_event(event: Sequence) -> Tuple[Query, str]:
    """``(query object, entry label)`` of one validated trace event."""
    kind = event[0]
    if kind == "prefix":
        return PrefixQuery(event[1]), event[2]
    if kind == "range":
        return RangeQuery(event[1], event[2]), event[3]
    if kind == "exact":
        return ExactQuery(event[1]), event[2]
    raise QuerySpecError(f"bad query event {list(event)!r}")


def _int_option(value: str, spec: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise QuerySpecError(
            f"query spec {spec!r}: {value!r} is not an integer"
        ) from None


#: Spec option names → QueryWorkload field names.
_OPTION_FIELDS = {"n": "n_per_unit", "len": "prefix_len", "span": "range_span"}


def _parse_query_workload(spec: object) -> Optional[QueryWorkload]:
    """Build and validate a :class:`QueryWorkload` from any spec form (the
    ``"queries"`` kind of :func:`repro.util.specs.parse_spec`).

    Accepts ``None`` (no query axis), a spec string, a dict (string-spec
    keys or QueryWorkload field names), or a ready :class:`QueryWorkload`.
    Raises :class:`QuerySpecError` naming the offending spec on any
    problem.
    """
    if spec is None:
        return None
    if isinstance(spec, QueryWorkload):
        return spec
    if isinstance(spec, str):
        kind, rest = split_spec(spec)
        try:
            raw = parse_options(rest, spec, label="query spec")
        except ValueError as exc:
            raise QuerySpecError(str(exc)) from exc
        kwargs: Dict[str, Any] = {"kind": kind}
        for key, value in raw.items():
            if key not in _OPTION_FIELDS:
                raise QuerySpecError(
                    f"query spec {spec!r}: unknown option {key!r} "
                    f"(known options: {', '.join(_OPTION_FIELDS)})"
                )
            kwargs[_OPTION_FIELDS[key]] = _int_option(value, spec)
        return QueryWorkload(**kwargs)
    if isinstance(spec, dict):
        kwargs = dict(spec)
        for short, full in _OPTION_FIELDS.items():
            if short in kwargs:
                kwargs[full] = kwargs.pop(short)
        try:
            return QueryWorkload(**kwargs)
        except TypeError as exc:
            raise QuerySpecError(f"bad query spec {spec!r}: {exc}") from exc
    raise QuerySpecError(
        f"query spec must be None, a string, a dict or a QueryWorkload, "
        f"got {type(spec).__name__}"
    )


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
