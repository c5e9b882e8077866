"""The simulated network: :class:`~repro.net.transport.SimTransport`
delivery and dead-lettering, and latency and loss as the ``delay:`` /
``drop:`` clauses of a :class:`~repro.net.chaos.ChaosTransport` over it."""

from __future__ import annotations

import random

import pytest

from repro.net.chaos import ChaosSpecError, ChaosTransport, parse_chaos
from repro.net.transport import SimTransport
from repro.sim.engine import Simulator


def make_net(chaos=None):
    net = SimTransport()
    return net if chaos is None else ChaosTransport(net, chaos)


class TestDelivery:
    def test_basic_delivery(self):
        net = make_net()
        inbox = []
        net.register("b", lambda env: inbox.append(env))
        net.send("a", "b", "hello")
        net.run_until_idle()
        assert len(inbox) == 1
        env = inbox[0]
        assert env.src == "a" and env.dst == "b" and env.payload == "hello"

    def test_fifo_between_same_pair(self):
        net = make_net("delay:1.0:max=1.0+seed=1")
        inbox = []
        net.register("b", lambda env: inbox.append(env.payload))
        for i in range(20):
            net.send("a", "b", i)
        net.run_until_idle()
        assert net.chaos_delayed == 20
        assert inbox == list(range(20))

    def test_counters(self):
        net = make_net()
        net.register("b", lambda env: None)
        net.send("a", "b", 1)
        net.run_until_idle()
        assert net.messages_sent == 1 and net.messages_delivered == 1

    def test_unregistered_destination_dead_letters(self):
        net = make_net()
        net.send("a", "ghost", 1)
        net.run_until_idle()
        assert net.messages_dead_lettered == 1

    def test_unregister_mid_flight(self):
        net = make_net()
        net.register("b", lambda env: None)
        net.send("a", "b", 1)
        net.unregister("b")
        net.run_until_idle()
        assert net.messages_dead_lettered == 1 and net.messages_delivered == 0

    def test_reregistration_replaces_handler(self):
        net = make_net()
        first, second = [], []
        net.register("b", lambda env: first.append(env))
        net.register("b", lambda env: second.append(env))
        net.send("a", "b", 1)
        net.run_until_idle()
        assert not first and len(second) == 1


class TestSimTransport:
    def test_owns_its_simulator(self):
        net = SimTransport()
        assert isinstance(net.sim, Simulator)
        assert net.now() == net.sim.now == 0.0
        net.call_later(2.0, lambda: None)
        net.run_until_idle()
        assert net.now() == net.sim.now == 2.0

    def test_destination_is_looked_up_at_delivery_time(self):
        net = make_net()
        inbox = []
        net.send("a", "late", 1)
        net.register("late", lambda env: inbox.append(env.payload))
        net.run_until_idle()
        assert inbox == [1] and net.messages_dead_lettered == 0

    def test_deliveries_fire_in_send_order_across_pairs(self):
        net = make_net()
        inbox = []
        for dst in ("b", "c"):
            net.register(dst, lambda env: inbox.append((env.src, env.dst)))
        sends = [("a", "b"), ("x", "c"), ("a", "c"), ("x", "b")]
        for src, dst in sends:
            net.send(src, dst, None)
        net.run_until_idle()
        assert inbox == sends
        assert net.now() == 0.0


class TestLatency:
    def test_constant_latency_delays_delivery(self):
        net = make_net("delay:1.0:max=3.0+seed=5")
        times = []
        net.register("b", lambda env: times.append(net.now()))
        net.send("a", "b", 1)
        net.run_until_idle()
        oracle = random.Random(5)
        oracle.random()  # the delay-probability draw
        assert times == [oracle.random() * 3.0]
        assert times[0] > 0.0

    def test_uniform_latency_within_bounds(self):
        net = make_net("delay:1.0:max=2.0+seed=5")
        times = []
        net.register("b", lambda env: times.append(net.now()))
        for i in range(50):
            net.send(f"a{i}", "b", i)
        net.run_until_idle()
        assert len(times) == 50
        assert all(0.0 <= t < 2.0 for t in times)

    def test_uniform_latency_bad_bounds(self):
        for spec in ("delay:1.0:max=0", "delay:1.0:max=-1", "delay:1.5"):
            with pytest.raises(ChaosSpecError):
                parse_chaos(spec)


class TestLoss:
    def test_loss_requires_rng(self):
        """A drop plan always has a seeded stream: an omitted seed is 0."""
        assert parse_chaos("drop:0.5").seed == 0
        runs = []
        for spec in ("drop:0.5", "drop:0.5+seed=0"):
            net = make_net(spec)
            pattern = []
            for i in range(100):
                before = net.chaos_dropped
                net.send("a", "b", i)
                pattern.append(net.chaos_dropped > before)
            runs.append(pattern)
        assert runs[0] == runs[1]
        assert any(runs[0]) and not all(runs[0])

    def test_drop_probability_bounds(self):
        for spec in ("drop:1.5", "drop:-0.1", "drop:x", "drop"):
            with pytest.raises(ChaosSpecError):
                parse_chaos(spec)

    def test_total_loss_near_one_drops_most(self):
        net = make_net("drop:0.99+seed=1")
        inbox = []
        net.register("b", lambda env: inbox.append(env))
        for _ in range(200):
            net.send("a", "b", 1)
        net.run_until_idle()
        assert net.messages_dropped > 150
        assert net.messages_dropped + net.messages_delivered == 200


class TestLossLatencyRngIndependence:
    """Regression: how the loss decision and the latency draw share the
    chaos RNG.

    Every chaos decision comes from one seeded stream, drop first: a
    dropped message draws nothing else, and a surviving one under
    ``delay:1.0`` draws the delay probability, then its hold.  Two
    properties follow and are pinned here: the drop pattern at a fixed
    seed does not depend on the delay bound, and the k-th survivor's hold
    is exactly what a replay of that stream predicts.  A refactor that
    draws the delay first (or for every message) would silently reshuffle
    every seeded experiment that mixes loss and latency.
    """

    def _drop_pattern(self, max_delay, n=300, seed=42):
        net = make_net(f"drop:0.3+delay:1.0:max={max_delay}+seed={seed}")
        arrivals = {}
        net.register("b", lambda env: arrivals.setdefault(env.payload, net.now()))
        pattern = []
        for i in range(n):
            before = net.chaos_dropped
            # One pair per message, so no hold queues behind another.
            net.send(f"a{i}", "b", i)
            pattern.append(net.chaos_dropped > before)
        net.run_until_idle()
        return net, pattern, arrivals

    def test_latency_sampled_only_for_survivors(self):
        net, _, _ = self._drop_pattern(1.0)
        assert 0 < net.chaos_dropped < net.messages_sent
        assert net.chaos_delayed == net.messages_sent - net.chaos_dropped

    def test_drop_pattern_is_independent_of_the_latency_model(self):
        """Same seed, different delay bounds: identical drops."""
        _, short, _ = self._drop_pattern(0.5)
        _, medium, _ = self._drop_pattern(1.5)
        _, long_, _ = self._drop_pattern(10.0)
        assert short == medium == long_
        assert any(short) and not all(short)

    def test_latency_stream_is_consumed_in_send_order_survivors_only(self):
        """Replaying the seeded stream — drop draw, then (for survivors
        only) the delay-probability draw and the hold — predicts every
        message's fate and arrival time exactly."""
        net, pattern, arrivals = self._drop_pattern(1.5)
        oracle = random.Random(42)
        expected_pattern, expected_arrivals = [], {}
        for i in range(300):
            dropped = oracle.random() < 0.3
            expected_pattern.append(dropped)
            if not dropped:
                oracle.random()
                expected_arrivals[i] = oracle.random() * 1.5
        assert pattern == expected_pattern
        assert arrivals == expected_arrivals

    def test_counter_invariant_under_loss_and_churn(self):
        net = make_net("drop:0.2+delay:1.0:max=1.5+seed=4")
        net.register("b", lambda env: None)
        for i in range(100):
            net.sim.schedule(i * 0.1, lambda i=i: net.send(f"a{i % 3}", "b", i))
        # In-flight and held messages dead-letter once "b" leaves.
        net.sim.schedule(5.0, lambda: net.unregister("b"))
        net.run_until_idle()
        assert net.messages_sent == 100
        assert net.chaos_dropped > 0
        assert net.messages_delivered > 0 and net.messages_dead_lettered > 0
        assert net.messages_sent == (
            net.messages_delivered + net.messages_dropped + net.messages_dead_lettered
        )
        assert net.in_flight == 0
