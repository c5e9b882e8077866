"""Protocol behaviour under message loss and MLT/mapping guards.

The Section 3 protocols assume reliable delivery (no acknowledgements or
retransmissions in the pseudo-code).  These tests document the observable
failure modes under loss — the engine must *detect* inconsistency (via its
checkers or dead-letter counters), never hang or corrupt silently into an
unflagged state.
"""

from __future__ import annotations

import random

from repro.baselines.dlpt_dht import HashedMapping
from repro.core.alphabet import BINARY
from repro.dlpt.protocol import ProtocolEngine
from repro.dlpt.system import DLPTSystem
from repro.lb.mlt import MLT
from repro.net.chaos import ChaosTransport
from repro.net.transport import SimTransport
from repro.peers.capacity import FixedCapacity


class TestMessageLoss:
    def _lossy_engine(self, p: float, seed: int = 1) -> ProtocolEngine:
        plan = f"drop:{p}+seed={seed}"
        return ProtocolEngine(transport=ChaosTransport(SimTransport(), plan))

    def test_lossless_baseline(self):
        eng = self._lossy_engine(0.0)
        eng.bootstrap_peer("mmmm")
        for k in ("10", "1010", "1001"):
            eng.insert_data(k)
            eng.run()
        eng.check_tree()
        assert eng.transport.messages_dropped == 0

    def test_loss_is_always_observable(self):
        """Under heavy loss the run still terminates, and every failure is
        visible: either the drop counter advanced, a message waits forever
        (for its node, or at a peer whose join never landed), or a
        consistency checker trips."""
        eng = self._lossy_engine(0.4, seed=7)
        eng.bootstrap_peer("mmmm")
        for k in ("dgemm", "dgemv", "daxpy", "sgemm"):
            eng.insert_data(k)
        eng.run()  # terminates despite loss (no retransmission loops)
        observable = (
            eng.transport.messages_dropped > 0
            or eng.pending_node_messages
            or any(peer.deferred for peer in eng.peers.values())
        )
        consistent = True
        try:
            eng.check_tree()
            eng.check_mapping()
        except AssertionError:
            consistent = False
        assert observable or consistent

    def test_join_survives_if_its_messages_get_through(self):
        rng = random.Random(3)
        for seed in range(5):
            eng = self._lossy_engine(0.2, seed=seed)
            eng.bootstrap_peer("mmmm")
            eng.join_peer("aaaa")
            eng.run()
            peer = eng.peers["aaaa"]
            # Either fully joined or visibly not joined — never half-state
            # where it believes it has a ring position without a successor.
            assert (peer.pred is None) == (peer.succ is None)


class TestMappingGuards:
    def test_mlt_skips_hashed_mapping(self, rng):
        """MLT has no lever under the random mapping (a peer's hash-space
        position is fixed); the sweep must be a safe no-op, not a crash."""
        system = DLPTSystem(
            alphabet=BINARY,
            capacity_model=FixedCapacity(5),
            mapping_factory=HashedMapping,
        )
        system.build(rng, 6)
        for k in ("000", "101", "111"):
            system.register(k)
        for _ in range(10):
            system.discover("101", rng=rng)
        system.end_time_unit()
        assert MLT().run_balancing(system, rng) == 0
        system.mapping.check_invariants()

    def test_lexicographic_mapping_advertises_reposition(self, rng):
        system = DLPTSystem(alphabet=BINARY, capacity_model=FixedCapacity(5))
        system.build(rng, 3)
        assert system.mapping.supports_reposition


class TestLegacyConstructor:
    """The transport-first API: the engine builds its own SimTransport."""

    def test_bare_constructor_stays_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ProtocolEngine()
