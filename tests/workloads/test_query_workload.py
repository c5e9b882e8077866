"""The ``queries:`` workload axis: spec parsing, sampling, trace events,
and end-to-end record/replay through the experiment runner."""

from __future__ import annotations

import functools
import json
import random

import pytest

from repro.core.queries import QuerySpecError
from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import run_metrics_dict
from repro.experiments.runner import record_single, replay_single, run_single
from repro.lb.mlt import MLT
from repro.peers.churn import DYNAMIC
from repro.util.specs import parse_spec
from repro.workloads.queries import (
    QUERY_EVENT_ARITY,
    QueryWorkload,
    parse_query_event,
    queries_signature,
    query_from_event,
)
from repro.workloads.traces import TraceUnit, WorkloadTrace

parse_queries = functools.partial(parse_spec, "queries")


class TestParseQueries:
    def test_none_means_no_axis(self):
        assert parse_queries(None) is None

    def test_bare_kinds(self):
        for kind in ("mixed", "prefix", "range", "exact"):
            plan = parse_queries(kind)
            assert plan.kind == kind
            assert plan.n_per_unit == 4  # the default

    def test_string_options(self):
        plan = parse_queries("prefix:n=6:len=3")
        assert (plan.kind, plan.n_per_unit, plan.prefix_len) == ("prefix", 6, 3)
        assert parse_queries("range:n=2:span=32").range_span == 32

    def test_dict_spec_accepts_short_and_full_names(self):
        assert parse_queries({"kind": "exact", "n": 2}).n_per_unit == 2
        assert parse_queries({"kind": "exact", "n_per_unit": 2}).n_per_unit == 2

    def test_workload_passes_through(self):
        plan = QueryWorkload(kind="range")
        assert parse_queries(plan) is plan

    @pytest.mark.parametrize(
        "spec",
        [
            "glob",  # unknown kind
            "mixed:n=0",  # n must be >= 1
            "range:span=0",  # span must be >= 1
            "prefix:len=-1",  # len must be >= 0
            "prefix:n=two",  # non-integer option
            "prefix:width=3",  # unknown option
            {"kind": "prefix", "widt": 3},  # unknown dict field
            42,  # not a spec at all
        ],
    )
    def test_bad_specs_fail_at_parse_time(self, spec):
        with pytest.raises(QuerySpecError):
            parse_queries(spec)

    def test_signature_is_canonical(self):
        sig = queries_signature(parse_queries("mixed:n=6"))
        assert sig == {
            "kind": "mixed",
            "n_per_unit": 6,
            "prefix_len": 2,
            "range_span": 16,
        }
        json.dumps(sig)  # must be JSON-serialisable as-is


class TestSampleUnit:
    KEYS = sorted(f"svc{i:03d}" for i in range(40))

    def test_empty_key_set_yields_no_events(self):
        plan = QueryWorkload()
        assert plan.sample_unit(random.Random(0), []) == []

    def test_deterministic_for_a_seed(self):
        plan = QueryWorkload(kind="mixed", n_per_unit=9)
        a = plan.sample_unit(random.Random(3), self.KEYS)
        b = plan.sample_unit(random.Random(3), self.KEYS)
        assert a == b and len(a) == 9

    def test_mixed_cycles_through_kinds(self):
        plan = QueryWorkload(kind="mixed", n_per_unit=6)
        kinds = [e[0] for e in plan.sample_unit(random.Random(1), self.KEYS)]
        assert kinds == ["prefix", "range", "exact"] * 2

    def test_events_are_well_formed(self):
        for kind in ("prefix", "range", "exact"):
            plan = QueryWorkload(kind=kind, n_per_unit=8, range_span=5)
            for event in plan.sample_unit(random.Random(2), self.KEYS):
                assert event[0] == kind
                # sample_unit omits the entry label (the runner appends it).
                assert len(event) == QUERY_EVENT_ARITY[kind]
                if kind == "range":
                    assert event[1] <= event[2]
                    assert event[1] in self.KEYS and event[2] in self.KEYS


class TestTraceEvents:
    def test_round_trip_through_parse(self):
        for event in (
            ["prefix", "dge", "dg"],
            ["range", "a", "b", ""],
            ["exact", "dgemm", "d"],
        ):
            assert parse_query_event(event) == event
            query, entry = query_from_event(event)
            assert entry == event[-1]
            assert query.matches(event[1])

    @pytest.mark.parametrize(
        "event",
        [
            [],
            ["glob", "a", "b"],
            ["prefix", "only-one-payload-missing-entry"],
            ["range", "a", "b"],  # missing entry
            ["range", "z", "a", ""],  # empty range
            ["exact", "a", "b", "c"],  # too many
        ],
    )
    def test_malformed_events_rejected(self, event):
        with pytest.raises(QuerySpecError):
            parse_query_event(event)

    def test_trace_unit_carries_queries(self):
        unit = TraceUnit(queries=[["prefix", "dg", ""]])
        record = unit.as_record(0)
        assert record["queries"] == [["prefix", "dg", ""]]
        assert TraceUnit.from_record(record).queries == [["prefix", "dg", ""]]

    def test_query_free_units_keep_the_old_byte_layout(self):
        record = TraceUnit().as_record(0)
        assert "queries" not in record

    def test_malformed_trace_queries_fail_at_load_time(self):
        from repro.workloads.traces import TraceError

        record = TraceUnit().as_record(0)
        record["queries"] = [["range", "z", "a", ""]]
        with pytest.raises(TraceError):
            TraceUnit.from_record(record)


def query_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        n_peers=30,
        total_units=10,
        growth_units=4,
        load_fraction=0.2,
        churn=DYNAMIC,
        workload="flash_crowd:S3L:onset=5:half_life=3",
        lb=MLT(),
        queries="mixed:n=3",
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunnerIntegration:
    def test_query_metrics_populate(self):
        result = run_single(query_config(seed=5))
        issued = sum(u.queries_issued for u in result.units)
        assert issued > 0
        assert sum(u.query_results for u in result.units) >= 0
        served = sum(u.queries_satisfied for u in result.units)
        assert served + sum(u.queries_dropped for u in result.units) == issued

    def test_signature_gains_queries_key_only_with_a_plan(self):
        assert "queries" in query_config().signature()
        assert "queries" not in query_config(queries=None).signature()

    def test_query_free_runs_are_unchanged(self):
        """Adding the axis must not perturb runs that don't use it: the
        query rng stream only exists when a plan is configured."""
        a = run_metrics_dict(run_single(query_config(queries=None, seed=5)))
        b = run_metrics_dict(run_single(query_config(queries=None, seed=5)))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert all(u["queries_issued"] == 0 for u in a["units"])

    def test_record_replay_reproduces_query_metrics(self):
        config = query_config(seed=9)
        recorded, trace = record_single(config)
        assert any(u.queries for u in trace.units)
        replayed = replay_single(config, trace)
        assert json.dumps(
            run_metrics_dict(recorded), sort_keys=True
        ) == json.dumps(run_metrics_dict(replayed), sort_keys=True)

    def test_trace_queries_replay_under_a_query_free_config(self):
        """The trace is the source of truth: its query events replay even
        when the replaying config has no query plan of its own."""
        recorded, trace = record_single(query_config(seed=9))
        replayed = replay_single(query_config(queries=None), trace)
        assert sum(u.queries_issued for u in replayed.units) == sum(
            u.queries_issued for u in recorded.units
        )

    def test_query_fields_round_trip_through_the_store_serde(self):
        from repro.experiments.metrics import (
            run_result_from_dict,
            run_result_to_dict,
        )

        result = run_single(query_config(seed=5))
        doc = run_result_to_dict(result)
        assert any(u["queries_issued"] for u in doc["units"])
        again = run_result_to_dict(run_result_from_dict(doc))
        assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_pre_query_documents_still_load(self):
        from repro.experiments.metrics import (
            run_result_from_dict,
            run_result_to_dict,
        )

        doc = run_result_to_dict(run_single(query_config(queries=None, seed=5)))
        for unit in doc["units"]:
            for key in ("queries_issued", "queries_satisfied", "queries_dropped",
                        "query_results", "query_logical_hops",
                        "query_physical_hops", "query_hop_histogram"):
                del unit[key]
        loaded = run_result_from_dict(doc)
        assert all(
            u.queries_issued == 0 and u.query_hop_histogram == {}
            for u in loaded.units
        )

    def test_trace_serialisation_round_trips_query_events(self):
        _, trace = record_single(query_config(seed=9))
        again = WorkloadTrace.loads(trace.dumps())
        assert [u.queries for u in again.units] == [u.queries for u in trace.units]
