"""Experiment configuration: validation and derived descriptions."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.experiments.config import ExperimentConfig
from repro.lb.mlt import MLT
from repro.util.specs import parse_spec


class TestValidation:
    def test_defaults_are_paper_scale(self):
        cfg = ExperimentConfig()
        assert cfg.n_peers == 100
        assert cfg.growth_units == 10
        assert cfg.total_units == 50
        assert len(cfg.corpus) >= 600

    def test_too_few_peers(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_peers=1)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            ExperimentConfig(corpus=[])

    def test_growth_exceeding_run(self):
        with pytest.raises(ValueError):
            ExperimentConfig(growth_units=60, total_units=50)

    def test_nonpositive_load(self):
        with pytest.raises(ValueError):
            ExperimentConfig(load_fraction=0)


class TestDerived:
    def test_with_lb_preserves_everything_else(self):
        cfg = ExperimentConfig(load_fraction=0.24)
        other = cfg.with_lb(MLT())
        assert other.lb.name == "MLT"
        assert other.load_fraction == 0.24
        assert other.seed == cfg.seed

    def test_describe_mentions_lb_and_load(self):
        text = ExperimentConfig(load_fraction=0.4).describe()
        assert "NoLB" in text and "40%" in text


#: A phased workload with per-phase rates, a nested rate-modulated schedule,
#: gaps between phases and a non-uniform fallback.
MIXED_WORKLOAD = {
    "kind": "mixed",
    "phases": [
        {"start": 0, "end": 30, "workload": "zipf:1.2"},
        {"start": 40, "end": 80, "workload": "diurnal:period=20:amplitude=0.5", "rate": 1.5},
        {"start": 90, "end": 120, "workload": "hotspot:P", "rate": 0.5},
    ],
    "fallback": "hotspot:S3L:0.6",
}

#: A fault timeline: a bounded storm, a partition, an in-window burst and a
#: burst scheduled past its phase's end (dropped).
MIXED_FAULTS = {
    "kind": "mixed",
    "phases": [
        {"start": 10, "end": 30, "faults": "crash_storm:0.05"},
        {"start": 30, "end": 40, "faults": "partition:5@32"},
        {"start": 50, "end": 60, "faults": "correlated:0.2@55"},
        {"start": 60, "end": 65, "faults": "correlated:0.3@80"},
    ],
    "r": 2,
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestSignatureIsStable:
    """``signature()`` is the sweep store's address: cells computed by an
    earlier revision must stay reachable, so its canonical-JSON hash is
    pinned for a default, a fault-bearing and a query-bearing config, and
    for each phase timeline: Figure 8, a mixed workload and a mixed fault
    plan."""

    @pytest.mark.parametrize(
        "overrides, sha256",
        [
            ({}, "e187f80b4f3d9d6c1d93bec7cac189f0aedd39fe7481ffb480116d7f37c1bbae"),
            (
                {"faults": "crash_storm:0.05:r=2"},
                "3ff48f6e06a975639be77d2cbfeee7e6341c4e6ef30ffca72a222a599235e431",
            ),
            (
                {"queries": "mixed:n=4"},
                "569683211a3066d4cba0485cce02cdaa6a3d43118ff6f9f0ff1f6b39fb475da4",
            ),
            (
                {"workload": "figure8"},
                "ba326ec1ccade3c7267555818c7b8981c3ce1b6d8c19fde695ad43a739840c1f",
            ),
            (
                {"workload": MIXED_WORKLOAD},
                "5732e924e7ace2c90cb39d2186c5a16d26d6badab25d69528e77a251f9c9c627",
            ),
            (
                {"faults": MIXED_FAULTS},
                "29ac7a4065290a6a97a37f77df8315f34b83821374d3817bd23cc5112a0389e9",
            ),
        ],
        ids=["default", "faults", "queries", "figure8", "mixed-workload", "mixed-faults"],
    )
    def test_golden_hashes(self, overrides, sha256):
        from repro.sweeps.plan import signature_hash

        assert signature_hash(ExperimentConfig(**overrides).signature()) == sha256


class TestTimelinesAreStable:
    """What a phase timeline draws, rates and reports, pinned per timeline:
    a refactor of the phase machinery must reproduce every value."""

    KEYS = sorted(
        [f"S3L_{name}" for name in ("gemm", "fft", "sort", "qr", "lu")]
        + [f"P{name}" for name in ("DGESV", "DPOTRF", "SGEMM", "ZHEEV")]
        + [f"D{name}" for name in ("GEMM", "TRSM", "SYRK", "AXPY", "DOT", "SCAL")]
    )

    @pytest.mark.parametrize(
        "spec, sha256",
        [
            ("figure8", "63e64e6a9d64787bdc89d4971b2f8fd2e970ac478603206937fe6a20b9413939"),
            (MIXED_WORKLOAD, "7c06dfae7ca285e4ada1ee8c7fd8e3692c8d7b7af71c0f7f507fdd02be56e1df"),
        ],
        ids=["figure8", "mixed-workload"],
    )
    def test_workload_stream(self, spec, sha256):
        schedule = parse_spec("workload", spec)
        rng = random.Random(7)
        stream = [
            ([schedule.sample(unit, rng, self.KEYS) for _ in range(5)],
             schedule.rate_multiplier(unit))
            for unit in range(130)
        ]
        assert _digest((stream, schedule.phase_windows(130))) == sha256

    def test_fault_stream(self):
        schedule = parse_spec("faults", MIXED_FAULTS).schedule
        rates = [schedule.crash_rate(unit) for unit in range(100)]
        assert _digest((rates, schedule.timed_events())) == (
            "7c8a5848f602ee22fce1567cb5ec7c321e216ac5752157359c8db8474e3300ea"
        )
