"""Workload spec parsing and config-parse-time validation."""

from __future__ import annotations

import functools

import pytest

from repro.experiments.config import ExperimentConfig
from repro.util.specs import parse_spec
from repro.workloads.dynamics import (
    AdversarialPrefixStacking,
    DiurnalSchedule,
    FlashCrowd,
    MixedSchedule,
    SteadySchedule,
)
from repro.workloads.requests import (
    PhasedSchedule,
    UniformRequests,
    WorkloadSchedule,
    ZipfRequests,
)
from repro.workloads.spec import WORKLOAD_KINDS, WorkloadSpecError

parse_workload = functools.partial(parse_spec, "workload")
balancer_from_spec = functools.partial(parse_spec, "balancer")


class TestStringSpecs:
    def test_every_kind_parses_to_a_schedule(self):
        specs = [
            "uniform", "zipf:1.3", "hotspot:S3L:0.7", "figure8",
            "flash_crowd:S3L:onset=10", "diurnal:period=12:amplitude=0.3",
            "adversarial:P",
        ]
        for spec in specs:
            assert isinstance(parse_workload(spec), WorkloadSchedule), spec

    def test_flash_crowd_options_apply(self):
        crowd = parse_workload("flash_crowd:S3L:onset=7:peak=0.5:rate_surge=4")
        assert isinstance(crowd, FlashCrowd)
        assert crowd.onset == 7 and crowd.peak == 0.5 and crowd.rate_surge == 4

    def test_zipf_exponent_and_hotspot_intensity(self):
        zipf = parse_workload("zipf:2.5")
        assert isinstance(zipf, SteadySchedule)
        assert zipf.generator.s == 2.5
        hot = parse_workload("hotspot:S3L:0.6")
        assert hot.generator.intensity == 0.6

    def test_unknown_kind_names_the_alternatives(self):
        with pytest.raises(WorkloadSpecError, match="known kinds"):
            parse_workload("bogus")
        for kind in ("hotspot", "flash_crowd", "adversarial"):
            with pytest.raises(WorkloadSpecError, match="prefix"):
                parse_workload(kind)

    def test_bad_numbers_and_options_fail_clearly(self):
        with pytest.raises(WorkloadSpecError, match="not a number"):
            parse_workload("zipf:hot")
        with pytest.raises(WorkloadSpecError, match="key=value"):
            parse_workload("diurnal:24")
        with pytest.raises(WorkloadSpecError):
            parse_workload("flash_crowd:S3L:peak=2.0")  # constructor rejects
        with pytest.raises(WorkloadSpecError):
            parse_workload("flash_crowd:S3L:bogus_opt=1")


class TestDictSpecs:
    def test_mixed_composes_nested_specs(self):
        sched = parse_workload(
            {
                "kind": "mixed",
                "phases": [
                    {"start": 0, "end": 10, "workload": "uniform"},
                    {"start": 10, "end": 20, "workload": "flash_crowd:S3L:onset=10",
                     "rate": 1.5},
                ],
                "fallback": "zipf:1.1",
            }
        )
        assert isinstance(sched, MixedSchedule)
        assert sched.rate_multiplier(10) == pytest.approx(1.5 * 2.0)

    def test_diurnal_nests_any_inner(self):
        sched = parse_workload(
            {"kind": "diurnal", "inner": "adversarial:S3L", "period": 12}
        )
        assert isinstance(sched, DiurnalSchedule)
        assert isinstance(sched.inner.generator, AdversarialPrefixStacking)

    def test_generic_kwargs_form(self):
        crowd = parse_workload({"kind": "flash_crowd", "prefix": "S3L", "onset": 3})
        assert isinstance(crowd, FlashCrowd) and crowd.onset == 3

    def test_bad_dicts_fail_clearly(self):
        with pytest.raises(WorkloadSpecError, match="phases"):
            parse_workload({"kind": "mixed"})
        with pytest.raises(WorkloadSpecError, match="bad mixed phase"):
            parse_workload({"kind": "mixed", "phases": [{"start": 0}]})
        with pytest.raises(WorkloadSpecError, match="known kinds"):
            parse_workload({"kind": "nope"})


class TestObjectSpecs:
    def test_schedule_passes_through(self):
        crowd = FlashCrowd("S3L")
        assert parse_workload(crowd) is crowd

    def test_generator_is_wrapped(self):
        sched = parse_workload(ZipfRequests(1.2))
        assert isinstance(sched, SteadySchedule)

    def test_none_means_uniform(self):
        sched = parse_workload(None)
        assert isinstance(sched.generator_at(0), UniformRequests)

    def test_invalid_object_raises_spec_error(self):
        with pytest.raises(WorkloadSpecError, match="neither"):
            parse_workload(object())

    def test_kinds_constant_matches_parser(self):
        for kind in ("uniform", "figure8"):
            assert kind in WORKLOAD_KINDS


class TestConfigIntegration:
    def test_workload_spec_builds_the_schedule(self):
        cfg = ExperimentConfig(workload="flash_crowd:S3L:onset=40")
        assert isinstance(cfg.schedule, FlashCrowd)
        assert "flash:S3L@40" in cfg.describe()

    def test_bare_generator_as_schedule_is_wrapped(self):
        cfg = ExperimentConfig(schedule=ZipfRequests(1.1))
        assert isinstance(cfg.schedule, SteadySchedule)

    def test_default_schedule_still_phased(self):
        assert isinstance(ExperimentConfig().schedule, PhasedSchedule)

    def test_invalid_workload_fails_at_config_parse_time(self):
        with pytest.raises(WorkloadSpecError):
            ExperimentConfig(workload="bogus")
        with pytest.raises(WorkloadSpecError):
            ExperimentConfig(schedule=object())

    def test_with_lb_preserves_workload(self):
        from repro.lb.mlt import MLT

        cfg = ExperimentConfig(workload="adversarial:S3L")
        other = cfg.with_lb(MLT())
        assert isinstance(other.schedule, SteadySchedule)
        assert other.schedule.name == "adversarial:S3L"


class TestBalancerSpecs:
    def test_known_balancers(self):
        assert balancer_from_spec("nolb").name == "NoLB"
        assert balancer_from_spec("MLT").name == "MLT"
        assert balancer_from_spec("mlt:fraction=0.25").fraction == 0.25
        assert balancer_from_spec("mlt:allow_empty=true").allow_empty is True
        assert balancer_from_spec("kchoices:k=2").k == 2

    def test_bad_specs(self):
        with pytest.raises(ValueError, match="known"):
            balancer_from_spec("roundrobin")
        with pytest.raises(ValueError, match="key=value"):
            balancer_from_spec("mlt:fraction")
        with pytest.raises(ValueError):
            balancer_from_spec("kc:k=zero")
