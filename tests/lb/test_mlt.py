"""MLT: split optimality (vs brute force), repositioning, convergence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import BINARY
from repro.dlpt.system import DLPTSystem
from repro.lb.mlt import MLT, best_split
from repro.peers.capacity import FixedCapacity


class TestBestSplit:
    def test_prefers_throughput(self):
        # loads [10, 0, 0, 10], caps 10/10: splitting in the middle gets
        # both hot nodes served.
        d = best_split(["a", "b", "c", "d"], [10, 0, 0, 10], 10, 10, current_index=1)
        assert d.best_throughput == 20

    def test_respects_capacity_clipping(self):
        d = best_split(["a", "b"], [100, 100], 10, 10, current_index=1)
        assert d.best_throughput == 20  # both saturated regardless

    def test_interior_candidates_only(self):
        # Paper: m-1 candidates, each peer keeps >= 1 node.
        d = best_split(["a", "b", "c"], [1, 1, 1], 10, 10, current_index=1)
        assert 1 <= d.best_index <= 2

    def test_allow_empty_extends_range(self):
        d = best_split(["a"], [5], 10, 10, current_index=0, allow_empty=True)
        assert d.best_index in (0, 1)

    def test_tie_prefers_fewest_migrations(self):
        # All splits give the same throughput and the same peak utilisation
        # is impossible here, so craft loads with a flat objective: zero
        # loads make every split identical -> stay at the current index.
        d = best_split(["a", "b", "c", "d"], [0, 0, 0, 0], 10, 10, current_index=2)
        assert d.best_index == 2 and not d.is_move

    def test_tie_prefers_lower_peak_utilisation(self):
        # Splits {a|bc} and {ab|c} both reach throughput 6, but the loads
        # 4+2 split evens utilisation better than 2+4 on caps 8/4.
        d = best_split(["a", "b", "c"], [2, 2, 2], 8, 4, current_index=1)
        assert d.best_index == 2  # P (cap 8) takes two nodes

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            best_split(["a"], [1, 2], 1, 1, current_index=0)

    def test_current_throughput_reported(self):
        d = best_split(["a", "b"], [10, 0], 5, 5, current_index=1)
        assert d.current_throughput == 5

    @settings(max_examples=200)
    @given(
        loads=st.lists(st.integers(0, 50), min_size=2, max_size=12),
        cap_p=st.integers(1, 60),
        cap_s=st.integers(1, 60),
        data=st.data(),
    )
    def test_matches_brute_force(self, loads, cap_p, cap_s, data):
        """The O(m) sweep finds the same optimum as trying every split."""
        labels = [f"n{i}" for i in range(len(loads))]
        cur = data.draw(st.integers(1, len(loads) - 1))
        d = best_split(labels, loads, cap_p, cap_s, current_index=cur)
        brute = max(
            min(sum(loads[:i]), cap_p) + min(sum(loads[i:]), cap_s)
            for i in range(1, len(loads))
        )
        assert d.best_throughput == brute

    @settings(max_examples=100)
    @given(
        loads=st.lists(st.integers(0, 50), min_size=2, max_size=10),
        cap_p=st.integers(1, 60),
        cap_s=st.integers(1, 60),
    )
    def test_never_worse_than_current(self, loads, cap_p, cap_s):
        labels = [f"n{i}" for i in range(len(loads))]
        d = best_split(labels, loads, cap_p, cap_s, current_index=1)
        assert d.best_throughput >= d.current_throughput


def build_loaded_system(rng, n_peers=6, keys=None):
    s = DLPTSystem(alphabet=BINARY, capacity_model=FixedCapacity(5))
    s.build(rng, n_peers)
    for k in keys or ["000", "001", "010", "011", "100", "101", "110", "111"]:
        s.register(k)
    return s


class TestBalancePair:
    def test_migrates_under_skew(self, rng):
        s = build_loaded_system(rng)
        # Load one key heavily, close the unit, then balance its host pair.
        hot = "101"
        for _ in range(20):
            s.discover(hot, entry_label=hot)
        s.end_time_unit()
        mlt = MLT()
        moved = mlt.run_balancing(s, rng)
        s.check_invariants()
        assert moved >= 0  # never corrupts; may or may not move

    def test_no_history_no_move_possible_but_valid(self, rng):
        s = build_loaded_system(rng)
        mlt = MLT()
        mlt.run_balancing(s, rng)  # zero loads: ties keep current splits
        s.check_invariants()

    def test_single_peer_noop(self, rng):
        s = DLPTSystem(alphabet=BINARY, capacity_model=FixedCapacity(5))
        s.build(rng, 1)
        s.register("1")
        assert MLT().run_balancing(s, rng) == 0

    def test_fraction_validates(self):
        with pytest.raises(ValueError):
            MLT(fraction=0.0)
        with pytest.raises(ValueError):
            MLT(fraction=1.5)

    def test_invariants_after_many_rounds(self, rng):
        s = build_loaded_system(rng, n_peers=8)
        mlt = MLT()
        keys = sorted(s.registered_keys())
        for _ in range(10):
            for _ in range(30):
                s.discover(keys[rng.randrange(len(keys))], rng=rng)
            s.end_time_unit()
            mlt.run_balancing(s, rng)
            s.check_invariants()


class TestConvergence:
    def test_pair_throughput_improves_for_hot_node(self, rng):
        """End-to-end: a saturated hot pair's joint throughput increases
        after one MLT pass (the core Section 3.3 claim)."""
        s = build_loaded_system(rng, n_peers=4)
        keys = sorted(s.registered_keys())
        # Saturate with a skewed workload.
        for _ in range(60):
            s.discover(keys[0], entry_label=keys[0])
            s.discover(keys[1], entry_label=keys[1])
        s.end_time_unit()

        def total_throughput(workload):
            sat = 0
            for k in workload:
                if s.discover(k, entry_label=k).satisfied:
                    sat += 1
            return sat

        workload = [keys[0], keys[1]] * 30
        before = total_throughput(workload)
        s.end_time_unit()
        MLT().run_balancing(s, rng)
        after = total_throughput(list(workload))
        assert after >= before

    def test_mlt_spreads_a_cluster_over_peers(self, rng):
        """Repeated MLT rounds recruit more peers into a hot key band."""
        s = build_loaded_system(rng, n_peers=8,
                                keys=[format(i, "06b") for i in range(32)])
        keys = sorted(s.registered_keys())

        def hosts_of_keys():
            return {s.mapping.host_of(k).id for k in keys}

        before = len(hosts_of_keys())
        mlt = MLT()
        for _ in range(12):
            for k in keys:
                s.discover(k, entry_label=k)
            s.end_time_unit()
            mlt.run_balancing(s, rng)
            s.check_invariants()
        assert len(hosts_of_keys()) >= before
