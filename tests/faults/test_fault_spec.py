"""Fault spec parsing: validation at config time, signature stability."""

from __future__ import annotations

import functools

import pytest

from repro.faults import (
    CorrelatedCrash,
    CrashStorm,
    FaultPlan,
    FaultSpecError,
    MixedFaults,
    PartitionSchedule,
    faults_signature,
)
from repro.sweeps.plan import canonical_json
from repro.util.specs import parse_spec

parse_faults = functools.partial(parse_spec, "faults")


class TestParseStrings:
    def test_none_passes_through(self):
        assert parse_faults(None) is None

    def test_crash_storm(self):
        plan = parse_faults("crash_storm:0.02")
        assert isinstance(plan.schedule, CrashStorm)
        assert plan.schedule.rate == 0.02
        assert plan.replication == 1 and plan.repair_every == 1

    def test_crash_storm_with_window_and_policy(self):
        plan = parse_faults("crash_storm:0.05:start=10:end=40:r=2:repair_every=4")
        assert plan.schedule.start == 10 and plan.schedule.end == 40
        assert plan.replication == 2 and plan.repair_every == 4

    def test_replication_can_be_disabled(self):
        assert parse_faults("crash_storm:0.02:r=0").replication == 0

    def test_correlated(self):
        plan = parse_faults("correlated:0.3@40")
        assert isinstance(plan.schedule, CorrelatedCrash)
        assert plan.schedule.fraction == 0.3 and plan.schedule.at == 40
        assert plan.schedule.timed_events() == [(40, plan.schedule._burst)]

    def test_partition(self):
        plan = parse_faults("partition:8@40:fraction=0.25")
        schedule = plan.schedule
        assert isinstance(schedule, PartitionSchedule)
        assert (schedule.duration, schedule.at, schedule.fraction) == (8, 40, 0.25)

    def test_partition_defaults_to_unit_zero(self):
        assert parse_faults("partition:8").schedule.at == 0

    def test_plan_and_schedule_pass_through(self):
        plan = FaultPlan(schedule=CrashStorm(0.1), replication=3)
        assert parse_faults(plan) is plan
        wrapped = parse_faults(CrashStorm(0.1))
        assert wrapped.replication == 1  # default policy

    @pytest.mark.parametrize("bad", [
        "bogus:1",                       # unknown kind
        "crash_storm",                   # missing rate
        "crash_storm:2.0",               # rate out of range
        "crash_storm:0.05:k=3",          # unknown option
        "correlated:0.3",                # missing @unit
        "correlated:0.3@x",              # non-numeric unit
        "partition:0@5",                 # zero duration
        "partition:8@40:fraction=1.5",   # fraction out of range
        "crash_storm:0.05:r=-1",         # negative replication
        "crash_storm:0.05:repair_every=0",
        42,                              # not a spec at all
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            parse_faults(bad)


class TestParseDicts:
    def test_generic_dict(self):
        plan = parse_faults({"kind": "crash_storm", "rate": 0.05, "r": 2})
        assert plan.schedule.rate == 0.05 and plan.replication == 2

    def test_mixed_composes_phases(self):
        plan = parse_faults({
            "kind": "mixed",
            "phases": [
                {"start": 10, "end": 30, "faults": "crash_storm:0.05"},
                {"start": 30, "end": 40, "faults": "partition:5@32"},
            ],
            "r": 2,
        })
        assert isinstance(plan.schedule, MixedFaults)
        assert plan.replication == 2
        assert plan.schedule.crash_rate(15) == 0.05
        assert plan.schedule.crash_rate(35) == 0.0
        assert plan.schedule.timed_events() == [(32, plan.schedule.phases[1].schedule._start)]

    def test_mixed_drops_out_of_window_events(self):
        plan = parse_faults({
            "kind": "mixed",
            "phases": [{"start": 0, "end": 10, "faults": "correlated:0.3@40"}],
        })
        assert plan.schedule.timed_events() == []

    def test_policy_rejected_inside_phases(self):
        with pytest.raises(FaultSpecError):
            parse_faults({
                "kind": "mixed",
                "phases": [{"start": 0, "end": 10, "faults": "crash_storm:0.05:r=2"}],
            })

    def test_overlapping_phases_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_faults({
                "kind": "mixed",
                "phases": [
                    {"start": 0, "end": 20, "faults": "crash_storm:0.05"},
                    {"start": 10, "end": 30, "faults": "crash_storm:0.01"},
                ],
            })


class TestSignature:
    def test_none_signs_none(self):
        assert faults_signature(None) is None

    def test_signature_is_canonical_json_serialisable(self):
        plan = parse_faults({
            "kind": "mixed",
            "phases": [
                {"start": 10, "end": 30, "faults": "crash_storm:0.05"},
                {"start": 30, "end": 40, "faults": "partition:5@32"},
            ],
        })
        canonical_json(faults_signature(plan))  # must not raise

    def test_equivalent_specs_share_a_signature(self):
        a = faults_signature(parse_faults("crash_storm:0.05:r=2"))
        b = faults_signature(parse_faults({"kind": "crash_storm", "rate": 0.05, "r": 2}))
        assert a == b

    @pytest.mark.parametrize("one, other", [
        ("crash_storm:0.05", "crash_storm:0.02"),
        ("crash_storm:0.05", "crash_storm:0.05:start=10"),
        ("crash_storm:0.05", "crash_storm:0.05:r=2"),
        ("crash_storm:0.05", "crash_storm:0.05:repair_every=4"),
        ("partition:8@40", "partition:9@40"),
        ("correlated:0.3@40", "correlated:0.3@41"),
    ])
    def test_semantic_changes_change_the_signature(self, one, other):
        assert faults_signature(parse_faults(one)) != faults_signature(parse_faults(other))
