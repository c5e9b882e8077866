"""The one compact-spec grammar, held alike on every surface.

Every kind of every surface — workloads, faults, set queries, balancers
and chaos clauses — refuses a token it would not use (an extra positional,
an unknown option) with the surface's own ``SpecError`` subclass, in a
message naming the spec; and a string spec and its dict form build the
same object.
"""

from __future__ import annotations

import pytest

from repro.core.queries import QuerySpecError
from repro.faults.spec import _KINDS as FAULT_TABLE
from repro.faults.spec import FaultSpecError
from repro.lb import _KINDS as BALANCER_TABLE
from repro.lb import BalancerSpecError
from repro.net.chaos import _CLAUSES as CHAOS_TABLE
from repro.net.chaos import ChaosSpecError
from repro.util.specs import parse_spec, spec_signature
from repro.workloads.queries import _KINDS as QUERY_TABLE
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
