"""Experiment configuration: validation and derived descriptions."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.lb.mlt import MLT


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


class TestSignatureIsStable:
    """``signature()`` is the sweep store's address: cells computed by an
    earlier revision must stay reachable, so its canonical-JSON hash is
    pinned for a default, a fault-bearing and a query-bearing config."""

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
        ],
        ids=["default", "faults", "queries"],
    )
    def test_golden_hashes(self, overrides, sha256):
        from repro.sweeps.plan import signature_hash

        assert signature_hash(ExperimentConfig(**overrides).signature()) == sha256
