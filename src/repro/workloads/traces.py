"""Trace-driven workload replay — the ``repro-trace/1`` JSONL schema.

A trace captures the *workload side* of one simulation run so it can be
replayed deterministically — against the same configuration (byte-identical
metrics; the regression harness), or against a different balancer or mapping
(a controlled comparison on literally identical traffic).  Per time unit it
records:

* ``joins`` — the capacity of each joining peer.  *Placement* is not
  recorded: choosing the identifier is the load balancer's job, so a trace
  replayed under KC and under NoLB sees the same arrivals but different
  placements — exactly the paper's comparison, on frozen traffic.
* ``leaves`` — the ring-position draw of each departure (an index into the
  sorted ring; replay reduces it modulo the current ring size, so the same
  trace drives churn even when the ring sizes diverge between systems).
* ``registrations`` — service keys entering the tree this unit.
* ``requests`` — ``(key, entry_label)`` pairs: what was asked for and the
  tree node where the request entered.  Entry labels are tree-structural
  (the PGCP tree depends only on the registered keys, never on peers), so
  they remain valid under any balancer or mapping.
* ``queries`` — the set queries issued this unit (see
  :mod:`repro.workloads.queries`): ``["prefix", prefix, entry]``,
  ``["range", lo, hi, entry]`` or ``["exact", key, entry]``.  Like entry
  labels, query bands are tree-structural, so a recorded query stream is
  valid under any balancer or mapping.  Traces recorded before the query
  axis existed load with no query events.
* ``faults`` — the fault events the injector applied this unit (see
  :mod:`repro.faults.injector`): ``["crash", index]`` records a fail-stop
  crash as a ring-position draw (applied modulo the live ring size on
  replay, like ``leaves``), ``["partition", start, count, duration]`` an
  arc of ``count`` peers starting at ring position ``start`` becoming
  unreachable for ``duration`` units.  Traces recorded before the fault
  axis existed load with no fault events.

The on-disk format is JSON Lines: a header object followed by one object
per unit, all serialised with sorted keys and no whitespace so a trace is
byte-stable across writes.  See ``docs/benchmarks.md`` for the schema
reference.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

TRACE_SCHEMA = "repro-trace/1"

_DUMP_KWARGS = dict(sort_keys=True, separators=(",", ":"))


class TraceError(ValueError):
    """A malformed or incompatible trace document."""


@dataclass
class TraceUnit:
    """The workload events of one time unit: a live run draws them into a
    fresh record, a replay reads the recorded one, and the runner applies
    either by the same code."""

    joins: List[int] = field(default_factory=list)
    leaves: List[int] = field(default_factory=list)
    registrations: List[str] = field(default_factory=list)
    requests: List[Tuple[str, str]] = field(default_factory=list)
    faults: List[list] = field(default_factory=list)
    queries: List[list] = field(default_factory=list)

    def as_record(self, unit: int) -> Dict[str, Any]:
        record = {
            "u": unit,
            "joins": self.joins,
            "leaves": self.leaves,
            "reg": self.registrations,
            "req": [list(r) for r in self.requests],
        }
        if self.faults:
            # Emitted only when present: fault-free traces keep the exact
            # byte layout of recordings made before the fault axis existed.
            record["faults"] = [list(e) for e in self.faults]
        if self.queries:
            # Same back-compat rule as ``faults``.
            record["queries"] = [list(e) for e in self.queries]
        return record

    #: Known fault-event kinds and their payload arity (ints after the kind).
    _FAULT_ARITY = {"crash": 1, "partition": 3}

    @classmethod
    def _parse_fault(cls, event: Any) -> list:
        """Coerce and validate one fault-event record, like every other
        trace field: malformed input must surface as :class:`TraceError`
        at load time, never as an arbitrary error mid-replay."""
        event = list(event)
        if not event or event[0] not in cls._FAULT_ARITY:
            raise ValueError(f"bad fault event {event!r}")
        kind, payload = event[0], event[1:]
        if len(payload) != cls._FAULT_ARITY[kind]:
            raise ValueError(f"fault event {event!r}: wrong payload length")
        values = [int(value) for value in payload]
        # Range checks: a negative index would wrap to an arbitrary peer
        # and a non-positive duration would silently no-op — corrupted
        # input must fail loudly here, not diverge quietly mid-replay.
        if any(value < 0 for value in values):
            raise ValueError(f"fault event {event!r}: negative payload")
        if kind == "partition" and (values[1] < 1 or values[2] < 1):
            raise ValueError(f"fault event {event!r}: count/duration must be >= 1")
        return [kind] + values

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "TraceUnit":
        # Local import: repro.workloads.queries imports repro.core only,
        # but keeping it out of module scope mirrors the lazy fault parse.
        from .queries import parse_query_event

        try:
            faults = [cls._parse_fault(e) for e in record.get("faults", [])]
            queries = [parse_query_event(e) for e in record.get("queries", [])]
            return cls(
                joins=[int(c) for c in record["joins"]],
                leaves=[int(i) for i in record["leaves"]],
                registrations=[str(k) for k in record["reg"]],
                requests=[(str(k), str(e)) for k, e in record["req"]],
                faults=faults,
                queries=queries,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace unit record: {exc}") from exc


@dataclass
class WorkloadTrace:
    """A recorded workload: header metadata plus the per-unit event lists."""

    seed: int
    run_index: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)
    units: List[TraceUnit] = field(default_factory=list)

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def total_requests(self) -> int:
        return sum(len(u.requests) for u in self.units)

    # -- serialisation ------------------------------------------------------

    def dumps(self) -> str:
        """The JSONL document (header line + one line per unit)."""
        header = {
            "schema": TRACE_SCHEMA,
            "seed": self.seed,
            "run_index": self.run_index,
            "meta": self.meta,
        }
        lines = [json.dumps(header, **_DUMP_KWARGS)]
        lines.extend(
            json.dumps(u.as_record(i), **_DUMP_KWARGS) for i, u in enumerate(self.units)
        )
        return "\n".join(lines) + "\n"

    def dump(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(self.dumps())
        return path

    @classmethod
    def loads(cls, text: str) -> "WorkloadTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise TraceError("empty trace document")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceError(f"trace header is not JSON: {exc}") from exc
        schema = header.get("schema")
        if schema != TRACE_SCHEMA:
            raise TraceError(
                f"trace schema {schema!r} is not {TRACE_SCHEMA!r}; "
                "re-record the trace with this version"
            )
        units: List[TraceUnit] = []
        for n, line in enumerate(lines[1:]):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"trace line {n + 2} is not JSON: {exc}") from exc
            if record.get("u") != n:
                raise TraceError(
                    f"trace line {n + 2}: expected unit {n}, got {record.get('u')!r}"
                )
            units.append(TraceUnit.from_record(record))
        return cls(
            seed=int(header.get("seed", 0)),
            run_index=int(header.get("run_index", 0)),
            meta=dict(header.get("meta", {})),
            units=units,
        )

    @classmethod
    def load(cls, path) -> "WorkloadTrace":
        return cls.loads(pathlib.Path(path).read_text())

