"""Cell-hash stability and sweep-plan semantics."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.lb.kchoices import KChoices
from repro.lb.mlt import MLT
from repro.peers.churn import DYNAMIC
from repro.sweeps import (
    PROFILES,
    SweepCell,
    canonical_json,
    paper_plan,
    parse_shard,
    plan_from_cells,
    signature_hash,
)
from repro.workloads.keys import blas_routines

TINY = dict(
    n_peers=10, corpus=blas_routines()[:40], growth_units=2,
    total_units=5, load_fraction=0.2,
)


def tiny_cell(label="NoLB", n_runs=2, **overrides) -> SweepCell:
    params = {**TINY, **overrides}
    return SweepCell(config=ExperimentConfig(**params), n_runs=n_runs, label=label)


class TestCellHash:
    def test_same_config_same_hash(self):
        assert tiny_cell().key() == tiny_cell().key()

    def test_label_is_presentation_only(self):
        assert tiny_cell(label="a").key() == tiny_cell(label="b").key()

    @pytest.mark.parametrize(
        "change",
        [
            dict(n_peers=11),
            dict(total_units=6),
            dict(growth_units=3),
            dict(load_fraction=0.3),
            dict(seed=7),
            dict(accounting="transit"),
            dict(peer_ids="uniform"),
            dict(churn=DYNAMIC),
            dict(workload="zipf:1.2"),
            dict(corpus=blas_routines()[:39]),
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_any_semantic_field_changes_the_hash(self, change):
        assert tiny_cell().key() != tiny_cell(**change).key()

    def test_n_runs_changes_the_hash(self):
        assert tiny_cell(n_runs=2).key() != tiny_cell(n_runs=3).key()

    def test_balancer_parameters_change_the_hash(self):
        base = tiny_cell()
        mlt = SweepCell(config=base.config.with_lb(MLT()), n_runs=2, label="MLT")
        mlt_half = SweepCell(
            config=base.config.with_lb(MLT(fraction=0.5)), n_runs=2, label="MLT"
        )
        kc = SweepCell(config=base.config.with_lb(KChoices(k=8)), n_runs=2, label="KC")
        assert len({base.key(), mlt.key(), mlt_half.key(), kc.key()}) == 4

    def test_dict_ordering_never_matters(self):
        signature = tiny_cell().signature()
        scrambled = dict(reversed(list(signature.items())))
        assert signature_hash(signature) == signature_hash(scrambled)
        assert canonical_json(signature) == canonical_json(scrambled)

    def test_workload_spec_and_object_forms_agree(self):
        from repro.workloads.requests import ZipfRequests

        by_spec = tiny_cell(workload="zipf:1.5")
        by_object = tiny_cell(workload=ZipfRequests(s=1.5))
        assert by_spec.key() == by_object.key()

    def test_zipf_seed_rng_is_semantic(self):
        """A custom seed_rng pins the hot-key ranking — different seeds are
        different workloads and must not share a cache cell."""
        import random

        from repro.workloads.requests import ZipfRequests

        seed1 = tiny_cell(workload=ZipfRequests(s=1.0, seed_rng=random.Random(1)))
        seed2 = tiny_cell(workload=ZipfRequests(s=1.0, seed_rng=random.Random(2)))
        seed1_again = tiny_cell(workload=ZipfRequests(s=1.0, seed_rng=random.Random(1)))
        assert seed1.key() != seed2.key()
        assert seed1.key() == seed1_again.key()

    def test_zipf_generators_aliasing_one_rng_differ(self):
        """Two generators *sharing* one Random object see different streams
        at run time (the first's draw advances the second's state), so a
        schedule over them must not hash like one over independent RNGs."""
        import random

        from repro.workloads.dynamics import Phase, PhasedSchedule
        from repro.workloads.requests import ZipfRequests

        def phased(gen_a, gen_b):
            return PhasedSchedule([Phase(0, 5, gen_a), Phase(5, 10, gen_b)])

        shared_rng = random.Random(42)
        aliased = tiny_cell(
            workload=phased(ZipfRequests(s=1.2, seed_rng=shared_rng),
                            ZipfRequests(s=1.2, seed_rng=shared_rng))
        )
        independent = tiny_cell(
            workload=phased(ZipfRequests(s=1.2, seed_rng=random.Random(42)),
                            ZipfRequests(s=1.2, seed_rng=random.Random(42)))
        )
        assert aliased.key() != independent.key()

    def test_mixed_schedule_signs_normalised_sources(self):
        """A mixed phase built from a bare generator and one built from its
        SteadySchedule wrapping behave identically — same signature."""
        from repro.workloads.dynamics import MixedSchedule, Phase, SteadySchedule
        from repro.workloads.requests import UniformRequests

        bare = tiny_cell(
            workload=MixedSchedule([Phase(0, 4, UniformRequests())])
        )
        wrapped = tiny_cell(
            workload=MixedSchedule(
                [Phase(0, 4, SteadySchedule(UniformRequests()))]
            )
        )
        assert bare.key() == wrapped.key()


class TestPlan:
    def test_deduplicates_by_hash(self):
        plan = plan_from_cells("p", [tiny_cell(label="a"), tiny_cell(label="b")])
        assert len(plan) == 1
        assert plan.cells[0].label == "a"  # first occurrence wins

    def test_shard_split_partitions_exactly(self):
        cells = [tiny_cell(seed=s) for s in range(10)]
        plan = plan_from_cells("p", cells)
        seen = []
        for shard in range(3):
            own, foreign = plan.shard_split(shard, 3)
            assert len(own) + len(foreign) == len(plan)
            seen.extend(c.key() for c in own)
        assert sorted(seen) == sorted(plan.keys())

    def test_shard_split_rejects_bad_shard(self):
        with pytest.raises(ValueError):
            plan_from_cells("p", [tiny_cell()]).shard_split(3, 3)

    def test_parse_shard(self):
        assert parse_shard("0/1") == (0, 1)
        assert parse_shard("2/4") == (2, 4)
        for bad in ("4/4", "x/2", "1", "-1/2"):
            with pytest.raises(ValueError):
                parse_shard(bad)


class TestPaperPlan:
    def test_smoke_plan_covers_all_artifacts(self):
        plan = paper_plan(PROFILES["smoke"])
        # 5 three-curve figures + fig9's two mappings + table1's grid +
        # the fault figures' (r, rate) grids, minus the points figures
        # share with Table 1 and the cells the two fault grids share
        # (deduplicated).
        assert len(plan) == 61

    def test_unknown_artifact_rejected(self):
        with pytest.raises(ValueError):
            paper_plan(PROFILES["smoke"], only=["fig99"])

    def test_profiles_share_no_cells(self):
        smoke = set(paper_plan(PROFILES["smoke"]).keys())
        quick = set(paper_plan(PROFILES["quick"]).keys())
        assert not smoke & quick  # peers/runs differ -> disjoint identities
