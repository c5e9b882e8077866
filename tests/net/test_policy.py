"""The shared retry/timeout/backoff policy (``repro.net.policy``).

Tier-1 throughout: :class:`RetryPolicy` is pure arithmetic — the
exponential schedule, the cap, the bounded deterministic jitter, and the
validation surface. The consumers (client RPC retries, p2p dial backoff)
are exercised in their own suites; here we pin the contract they rely
on: jitter only ever *shortens* a delay, and the schedule is a pure
function of ``(backoff, seed, attempt)`` — down to the last bit, for the
seeds the client and the dial loop derive.
"""

from __future__ import annotations

import zlib

import pytest

from repro.net import policy
from repro.net.policy import RetryPolicy


def _client_seed(endpoint: str) -> int:
    """What ``DLPTClient`` seeds its policy with."""
    return zlib.crc32(endpoint.encode("utf-8"))


def _dial_seed(own: tuple, destination: tuple) -> int:
    """What ``AsyncioTransport._dial`` seeds its policy with."""
    return zlib.crc32(repr((own, destination)).encode("utf-8"))


_UNIX = (("unix", "/tmp/repro-p2p-a/peer.sock"), ("unix", "/tmp/repro-p2p-b/peer.sock"))
_TCP = (("tcp", "127.0.0.1", 40001), ("tcp", "127.0.0.1", 40002))


class TestValidation:
    @pytest.mark.parametrize("backoff", [0.0, -0.5, 5.5])
    def test_backoff_out_of_range_is_rejected(self, backoff):
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay(0)


class TestSchedule:
    def test_exponential_growth_and_cap(self, monkeypatch):
        monkeypatch.setattr(policy, "JITTER", 0.0)
        monkeypatch.setattr(policy, "MAX_BACKOFF", 1.0)
        delays = [RetryPolicy(0.1).delay(k) for k in range(1, 7)]
        assert delays == [pytest.approx(v) for v in (0.1, 0.2, 0.4, 0.8, 1.0, 1.0)]

    def test_jitter_only_shortens_within_bound(self):
        retry = RetryPolicy(0.05, seed=42)
        for attempt in range(1, 9):
            base = min(0.05 * policy.MULTIPLIER ** (attempt - 1), policy.MAX_BACKOFF)
            # The contract every timeout bound relies on: the jittered
            # delay lies in [(1 - JITTER) * base, base].
            assert (1.0 - policy.JITTER) * base <= retry.delay(attempt) <= base

    def test_schedule_is_deterministic(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert [a.delay(k) for k in range(1, 6)] == [b.delay(k) for k in range(1, 6)]

    def test_different_seeds_desynchronize(self):
        a = [RetryPolicy(seed=1).delay(k) for k in range(1, 6)]
        b = [RetryPolicy(seed=2).delay(k) for k in range(1, 6)]
        assert a != b  # two processes never retry in lockstep


class TestPinnedSchedule:
    """Delays computed before the growth factor, cap and jitter fraction
    became module constants; ``==`` on purpose — a refactor of the
    arithmetic must reproduce every bit."""

    @pytest.mark.parametrize(
        "backoff, seed, expected",
        [
            pytest.param(0.05, _client_seed("@bench-0"), [
                0.03777441889561104, 0.09599118110265109, 0.17605682167919318,
                0.33260167628448867, 0.7074691897583094, 1.3308428841122213,
                2.797977000213244, 4.373769067547939, 4.084411220696733,
            ], id="client-bench"),
            pytest.param(0.05, _client_seed("@client-4242-1"), [
                0.0386272897126397, 0.09254427013410495, 0.15808504967203155,
                0.325314211508755, 0.6567604919193011, 1.4331846044961836,
                2.606909376467906, 4.268446931783906, 4.38442508585477,
            ], id="client-default"),
            pytest.param(0.01, _client_seed("@client-4242-2"), [
                0.007824031237977628, 0.0164072299324867, 0.03940211780532312,
            ], id="client-10ms"),
            pytest.param(0.001, _client_seed("@client-4242-3"), [
                0.0008031899090468489, 0.0017955391547444962, 0.003199402501376695,
            ], id="client-1ms"),
            pytest.param(0.05, _dial_seed(*_UNIX), [
                0.04465835345063071, 0.0983970415693376, 0.1780432584576481,
                0.30937986735861434, 0.6936927643758405,
            ], id="dial-unix"),
            pytest.param(0.01, _dial_seed(*_UNIX), [
                0.008931670690126141, 0.019679408313867518,
            ], id="dial-unix-10ms"),
            pytest.param(0.05, _dial_seed(*_TCP), [
                0.045938950090633715, 0.09856948290967249, 0.1893988852236932,
                0.39669452227136365, 0.6838184050691356,
            ], id="dial-tcp"),
            pytest.param(0.01, _dial_seed(*_TCP), [
                0.009187790018126743, 0.0197138965819345,
            ], id="dial-tcp-10ms"),
        ],
    )
    def test_delays_are_bit_identical(self, backoff, seed, expected):
        retry = RetryPolicy(backoff=backoff, seed=seed)
        assert [retry.delay(k) for k in range(1, len(expected) + 1)] == expected
