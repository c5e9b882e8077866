"""The one compact-spec grammar, held alike on every surface.

Every kind of every surface — workloads, faults, set-query workloads,
balancers, chaos clauses and single set queries — refuses a token it would
not use (an extra positional, an unknown option) with the surface's own
``SpecError`` subclass, in a message naming the spec; and a string spec
and its dict form build the same object.  A ``mixed`` phase list refuses a
key it does not read, and a set query's trace event is its row's
positional form.
"""

from __future__ import annotations

import pytest

from repro.core.alphabet import PRINTABLE
from repro.core.queries import (
    QUERY_SPECS,
    SINGLE_QUERY_SPECS,
    ExactQuery,
    QuerySpecError,
    parse_query,
)
from repro.faults.spec import _KINDS as FAULT_TABLE
from repro.faults.spec import FaultSpecError
from repro.lb import _KINDS as BALANCER_TABLE
from repro.lb import BalancerSpecError
from repro.net.chaos import _CLAUSES as CHAOS_TABLE
from repro.net.chaos import ChaosSpecError
from repro.util.specs import parse_spec, spec_signature
from repro.workloads.queries import _KINDS as QUERY_TABLE
from repro.workloads.queries import QUERY_EVENT_ARITY, parse_query_event, query_from_event
from repro.workloads.spec import _KINDS as WORKLOAD_TABLE
from repro.workloads.spec import WorkloadSpecError

#: A valid spec of every kind, every positional given.
VALID = {
    "workload": {
        "uniform": "uniform",
        "zipf": "zipf:1.2",
        "hotspot": "hotspot:S3L:0.8",
        "figure8": "figure8:0.8",
        "flash_crowd": "flash_crowd:S3L",
        "diurnal": "diurnal",
        "adversarial": "adversarial:S3L",
        "mixed": {"kind": "mixed", "phases": [{"start": 0, "end": 5, "workload": "uniform"}]},
    },
    "faults": {
        "crash_storm": "crash_storm:0.05",
        "correlated": "correlated:0.3@40",
        "partition": "partition:8@40",
        "mixed": {"kind": "mixed",
                  "phases": [{"start": 0, "end": 5, "faults": "crash_storm:0.05"}]},
    },
    "queries": {kind: kind for kind in ("mixed", "prefix", "range", "exact")},
    "balancer": {kind: kind for kind in ("nolb", "mlt", "kc", "kchoices")},
    "chaos": {
        "drop": "drop:0.1",
        "dup": "dup:0.1",
        "reorder": "reorder:0.1",
        "kill": "kill:0.1",
        "delay": "delay:0.1",
        "crash_storm": "crash_storm:0.02",
        "partition": "partition:2@4",
    },
}

ERRORS = {
    "workload": WorkloadSpecError,
    "faults": FaultSpecError,
    "queries": QuerySpecError,
    "balancer": BalancerSpecError,
    "chaos": ChaosSpecError,
}

TABLES = {
    "workload": WORKLOAD_TABLE,
    "faults": FAULT_TABLE,
    "queries": QUERY_TABLE,
    "balancer": BALANCER_TABLE,
    "chaos": CHAOS_TABLE,
}

CASES = [(surface, kind) for surface, kinds in VALID.items() for kind in kinds]


def _refused(surface, spec):
    with pytest.raises(ERRORS[surface]) as caught:
        parse_spec(surface, spec)
    assert repr(spec) in str(caught.value)


def test_every_kind_of_every_surface_is_covered():
    for surface, table in TABLES.items():
        assert set(VALID[surface]) == set(table.kinds), surface


@pytest.mark.parametrize(("surface", "kind"), CASES)
def test_the_valid_spec_parses(surface, kind):
    assert parse_spec(surface, VALID[surface][kind]) is not None


@pytest.mark.parametrize(("surface", "kind"), CASES)
def test_an_extra_positional_is_refused(surface, kind):
    spec = VALID[surface][kind]
    _refused(surface, f"{spec}:7" if isinstance(spec, str) else f"{kind}:7")


@pytest.mark.parametrize(("surface", "kind"), CASES)
def test_an_unknown_option_is_refused(surface, kind):
    spec = VALID[surface][kind]
    _refused(surface, f"{spec}:bogus=1" if isinstance(spec, str) else {**spec, "bogus": 1})


@pytest.mark.parametrize(
    ("surface", "spec"),
    [
        ("workload", "zipf:1.2:bogus=3"),
        ("workload", "uniform:whatever"),
        ("workload", "figure8:0.8:extra"),
        ("workload", "hotspot:S3L:0.8:junk"),
        ("balancer", "mlt:allow_empty=maybe"),
        ("workload", "hotspot:S3L:x"),
        ("faults", "partition:8:40"),
        ("faults", "correlated:0.3@40.5"),
        ("queries", "prefix:n=2.5"),
        ("balancer", "kc:k=2.5"),
        ("chaos", "drop:0.1:7"),
        ("workload", "flash_crowd:S3L:onset=3:junk"),
        ("workload", "zipf:1.2:s=1.5"),
        ("faults", "rate=0.05"),
        ("faults", {"kind": "mixed"}),
        ("workload", {"kind": ["zipf"]}),
        ("workload", "zipf:seed_rng=3"),
    ],
)
def test_a_token_is_never_dropped(surface, spec):
    _refused(surface, spec)


def test_a_flash_crowd_base_must_be_a_request_generator():
    """Refused when parsed, not when the first request is drawn."""
    _refused("workload", "flash_crowd:S3L:onset=0:peak=0.5:base=3")


def test_an_integer_token_stays_an_int():
    zipf = parse_spec("workload", "zipf:1").generator
    assert zipf.s == 1 and isinstance(zipf.s, int)


@pytest.mark.parametrize(
    ("surface", "string", "mapping"),
    [
        ("workload", "uniform", {"kind": "uniform"}),
        ("workload", "zipf:1.2", {"kind": "zipf", "s": 1.2}),
        ("workload", "hotspot:S3L:0.7", {"kind": "hotspot", "prefix": "S3L", "intensity": 0.7}),
        ("workload", "figure8:0.6", {"kind": "figure8", "intensity": 0.6}),
        ("workload", "flash_crowd:S3L:onset=10:peak=0.5",
         {"kind": "flash_crowd", "prefix": "S3L", "onset": 10, "peak": 0.5}),
        ("workload", "diurnal:period=12:amplitude=0.3",
         {"kind": "diurnal", "period": 12, "amplitude": 0.3}),
        ("workload", "adversarial:S3L:s=1.5", {"kind": "adversarial", "prefix": "S3L", "s": 1.5}),
        ("faults", "crash_storm:0.05:start=10:end=40:r=2:repair_every=4",
         {"kind": "crash_storm", "rate": 0.05, "start": 10, "end": 40, "r": 2, "repair_every": 4}),
        ("faults", "correlated:0.3@40", {"kind": "correlated", "fraction": 0.3, "at": 40}),
        ("faults", "partition:8@40:fraction=0.25",
         {"kind": "partition", "duration": 8, "at": 40, "fraction": 0.25}),
        ("queries", "mixed", {"kind": "mixed"}),
        ("queries", "prefix:n=6:len=3", {"kind": "prefix", "n": 6, "len": 3}),
        ("queries", "range:n=2:span=32", {"kind": "range", "n_per_unit": 2, "range_span": 32}),
        ("queries", "exact:n=2", {"kind": "exact", "n": 2}),
    ],
)
def test_a_string_and_its_dict_build_the_same_object(surface, string, mapping):
    assert spec_signature(surface, parse_spec(surface, string)) == spec_signature(
        surface, parse_spec(surface, mapping)
    )


# -- the phase lists of both ``mixed`` kinds ----------------------------------

PHASE_FIELD = {"workload": ("workload", "uniform"), "faults": ("faults", "crash_storm:0.05")}


def _mixed(surface, **entry):
    field, nested = PHASE_FIELD[surface]
    return {"kind": "mixed", "phases": [{"start": 0, "end": 10, field: nested, **entry}]}


@pytest.mark.parametrize("surface", sorted(PHASE_FIELD))
@pytest.mark.parametrize("key", ["rat", "bogus", "kind"])
def test_a_phase_key_the_reader_does_not_read_is_refused(surface, key):
    with pytest.raises(ERRORS[surface], match=f"unknown key.*'{key}'"):
        parse_spec(surface, _mixed(surface, **{key: 2}))


@pytest.mark.parametrize("surface", sorted(PHASE_FIELD))
@pytest.mark.parametrize("window", [{"start": 0.5}, {"end": 10.9}])
def test_a_fractional_phase_window_is_refused(surface, window):
    with pytest.raises(ERRORS[surface], match="integer number of units"):
        parse_spec(surface, _mixed(surface, **window))


@pytest.mark.parametrize("rate", ["2", None, True])
def test_a_phase_rate_that_is_not_a_number_is_refused(rate):
    with pytest.raises(WorkloadSpecError, match="is not a number"):
        parse_spec("workload", _mixed("workload", rate=rate))


def test_a_whole_float_window_stays_an_int():
    phase = parse_spec("workload", _mixed("workload", start=0.0, end=40.0, rate=2)).phases[0]
    assert (phase.start, phase.end, phase.rate) == (0, 40, 2.0)
    assert isinstance(phase.start, int) and isinstance(phase.end, int)


# -- the set-query surface: spec strings, dicts and trace events --------------

#: A valid string spec of each single-attribute query kind, and its dict.
QUERY_FORMS = {
    "exact": ("exact:dgemm", {"kind": "exact", "key": "dgemm"}),
    "prefix": ("prefix:dge", {"kind": "prefix", "prefix": "dge"}),
    "range": ("range:a:b", {"kind": "range", "lo": "a", "hi": "b"}),
}


def _query_refused(spec, match=None):
    with pytest.raises(QuerySpecError, match=match) as caught:
        parse_query(spec)
    assert repr(spec) in str(caught.value)


def test_every_single_query_kind_is_covered():
    assert set(QUERY_FORMS) == set(SINGLE_QUERY_SPECS.kinds)
    assert set(QUERY_SPECS.kinds) == set(QUERY_FORMS) | {"multi"}


@pytest.mark.parametrize("kind", sorted(QUERY_FORMS))
def test_a_query_string_and_its_dict_build_the_same_query(kind):
    string, mapping = QUERY_FORMS[kind]
    assert parse_query(string) == parse_query(mapping)


@pytest.mark.parametrize("kind", sorted(QUERY_FORMS))
def test_a_query_refuses_an_extra_positional(kind):
    _query_refused(QUERY_FORMS[kind][0] + ":7", match="unexpected '7'")


@pytest.mark.parametrize("kind", sorted(QUERY_FORMS))
def test_a_query_refuses_an_unknown_option(kind):
    string, mapping = QUERY_FORMS[kind]
    _query_refused(string + ":bogus=1", match="unknown option.*bogus")
    _query_refused({**mapping, "bogus": "1"}, match="unknown option.*bogus")


@pytest.mark.parametrize(("spec", "field"), [("exact", "key"), ("prefix", "prefix"),
                                             ("range:a", "hi")])
def test_a_missing_positional_is_refused_by_name(spec, field):
    _query_refused(spec, match=f"needs an? {field} ")


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "exact", "key": 5},
        {"kind": "prefix", "prefix": None},
        {"kind": "range", "lo": 1, "hi": "z"},
        {"kind": "multi", "clauses": {"os": {"kind": "exact", "key": 5}}},
    ],
)
def test_a_query_field_that_is_not_a_string_is_refused(spec):
    _query_refused(spec, match="identifier strings")


@pytest.mark.parametrize("event", [["exact", 5, "e"], ["range", 1, "z", "e"], ["exact", "k", 5]])
def test_a_trace_event_field_that_is_not_a_string_is_refused(event):
    with pytest.raises(QuerySpecError):
        parse_query_event(event)


def test_a_key_holding_the_option_sign_needs_the_dict_form():
    assert parse_query({"kind": "exact", "key": "os=linux"}, PRINTABLE) == ExactQuery("os=linux")
    _query_refused("exact:os=linux", match="unknown option.*os")


def test_a_query_field_may_be_spelled_as_its_option():
    assert parse_query("range:lo=a:hi=b") == parse_query("range:a:b")
    assert parse_query("exact:key=x") == ExactQuery("x")
    _query_refused("range:a:b:lo=c", match="lo is given twice")


def test_a_multi_clause_is_a_single_query():
    inner = {"kind": "multi", "clauses": {"os": "exact:linux"}}
    _query_refused({"kind": "multi", "clauses": {"host": inner}}, match="unknown kind 'multi'")
    _query_refused({"kind": "multi", "clauses": {"os": "exact:linux:7"}}, match="unexpected '7'")
    _query_refused({"kind": "multi"}, match="needs a 'clauses' mapping")


def test_a_trace_event_is_the_positional_form_of_its_row():
    for kind, (string, mapping) in QUERY_FORMS.items():
        fields = [v for k, v in mapping.items() if k != "kind"]
        query, entry = query_from_event([kind, *fields, "e"])
        assert (query, entry) == (parse_query(string), "e")
        assert QUERY_EVENT_ARITY[kind] == len(fields) + 1
