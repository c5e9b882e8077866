"""End-to-end scenarios across the whole stack."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import DiscoveryService, DLPTSystem, MLT, NoLB
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.peers.capacity import UniformCapacity
from repro.peers.churn import DYNAMIC
from repro.workloads.keys import grid_service_corpus, s3l_routines
from repro.workloads.dynamics import figure8_schedule


class TestGridServiceDiscovery:
    """The paper's motivating scenario: a grid middleware registering
    linear-algebra services and resolving flexible queries."""

    @pytest.fixture(scope="class")
    def deployed(self):
        rng = random.Random(7)
        system = DLPTSystem(capacity_model=UniformCapacity(base=50, ratio=4))
        system.build(rng, n_peers=50)
        svc = DiscoveryService(system)
        for name in grid_service_corpus():
            svc.register(name)
        system.check_invariants()
        return system, svc, rng

    def test_every_service_discoverable(self, deployed):
        system, svc, rng = deployed
        for name in grid_service_corpus()[::25]:
            out = svc.discover(name, rng=rng)
            assert out.satisfied, name
            system.end_time_unit()  # keep budgets fresh

    def test_completion_matches_corpus(self, deployed):
        _, svc, _ = deployed
        assert svc.complete("S3L") == s3l_routines()

    def test_range_over_type_band(self, deployed):
        _, svc, _ = deployed
        out = svc.range_search("dgemm", "dgetrs")
        corpus = grid_service_corpus()
        assert out == [k for k in corpus if "dgemm" <= k <= "dgetrs"]

    def test_tree_size_near_paper(self, deployed):
        system, _, _ = deployed
        # Paper: "the number of nodes around 1000".
        assert 700 <= system.n_nodes <= 2000


class TestChurnResilience:
    def test_heavy_churn_preserves_all_state(self, rng):
        """Under sustained 10%/unit churn every registration survives
        (graceful leaves migrate node state to successors)."""
        system = DLPTSystem()
        system.build(rng, n_peers=30)
        svc = DiscoveryService(system)
        keys = grid_service_corpus()[:200]
        for k in keys:
            svc.register(k)
        for _ in range(20):
            for _ in range(3):
                system.add_peer(rng)
            for _ in range(3):
                ids = system.ring.ids()
                system.remove_peer(ids[rng.randrange(len(ids))])
            system.end_time_unit()
        system.check_invariants()
        assert system.registered_keys() >= set(keys)
        for k in keys[::20]:
            assert svc.discover(k, rng=rng).satisfied
            # The first 200 corpus keys are one lexicographic family (P*),
            # so destination peers saturate quickly: refresh the budget.
            system.end_time_unit()

    def test_shrink_to_two_peers(self, rng):
        system = DLPTSystem()
        system.build(rng, n_peers=10)
        for k in grid_service_corpus()[:50]:
            system.register(k)
        while len(system.ring) > 2:
            system.remove_peer(system.ring.ids()[0])
        system.check_invariants()
        assert len(system.registered_keys()) == 50


class TestFullExperimentPipeline:
    def test_hotspot_run_with_mlt_recovers(self):
        """Miniature Figure 8: MLT regains satisfaction after the S3L burst
        ends; no-LB stays depressed during it."""
        base = dict(
            n_peers=40,
            corpus=grid_service_corpus()[:400],
            total_units=70,
            load_fraction=0.4,
            churn=DYNAMIC,
            workload=figure8_schedule(),
        )
        mlt = run_single(ExperimentConfig(lb=MLT(), **base), 0)
        nolb = run_single(ExperimentConfig(lb=NoLB(), **base), 0)
        mlt_burst = float(np.mean(mlt.satisfied_pct[55:70]))
        nolb_burst = float(np.mean(nolb.satisfied_pct[55:70]))
        assert mlt_burst > nolb_burst

    def test_invariants_hold_after_full_run(self):
        """Run the paper loop end-to-end, then audit every invariant."""
        from repro.experiments.runner import build_system, growth_batches
        from repro.util.rng import RngStreams

        cfg = ExperimentConfig(
            n_peers=25, corpus=grid_service_corpus()[:150], total_units=12,
            growth_units=4, churn=DYNAMIC, lb=MLT(),
        )
        streams = RngStreams(cfg.seed).spawn(0)
        system = build_system(cfg, streams)
        lb_rng = streams.stream("lb")
        churn_rng = streams.stream("churn")
        for unit, batch in enumerate(growth_batches(cfg, streams)):
            cfg.lb.run_balancing(system, lb_rng)
            for k in batch:
                system.register(k)
            if len(system.ring) > 3:
                ids = system.ring.ids()
                system.remove_peer(ids[churn_rng.randrange(len(ids))])
            system.add_peer(churn_rng)
            system.end_time_unit()
            system.check_invariants()


class TestPublicAPI:
    def test_package_level_imports(self):
        import repro

        assert repro.__version__
        assert {"DLPTSystem", "DiscoveryService", "MLT", "KChoices", "NoLB"} <= set(
            repro.__all__
        )

    def test_quickstart_docstring_flow(self):
        rng = random.Random(1)
        system = DLPTSystem()
        system.build(rng, n_peers=16)
        svc = DiscoveryService(system)
        svc.register("dgemm")
        svc.register("dgemv")
        assert svc.complete("dgem") == ["dgemm", "dgemv"]
        assert svc.discover("dgemm", rng=rng).satisfied
