"""One retry/timeout/backoff policy for the whole runtime.

Before this module, the serving stack had three ad-hoc backoff policies:
the client's ``connect(..., retries=, backoff=)`` exponential doubling,
the socket transport's ``dial_backoff`` link-dial loop, and the broker's
fixed ``retry_after`` backpressure hint.  Three implementations of the
same idea drift — and none of them had jitter, so synchronized clients
retried in lockstep (a retry storm: every waiter sleeps the identical
exponential delay and stampedes back at the same instant).

:class:`RetryPolicy` is the single shape.  It computes the classic
exponential schedule ``backoff * multiplier**(attempt-1)``, capped at
``max_backoff``, then subtracts **bounded deterministic jitter**: the
delay for attempt ``k`` is drawn uniformly from
``[(1 - jitter) * d, d]`` using an RNG seeded from ``(seed, k)`` — so
two processes with different seeds desynchronize, while a test re-running
the same policy sees the exact same delays.  Jitter only ever *shortens*
a delay, so every existing timeout bound stays valid.

Consumers: :class:`~repro.net.client.DLPTClient` (RPC retries) and
:class:`~repro.net.asyncio_transport.AsyncioTransport` (link dial backoff).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

#: Mixing constant for the per-attempt jitter RNG seed (a prime large
#: enough that (seed, draw) pairs never collide for realistic values).
_SEED_MIX = 1_000_003


def _unit_draw(seed: int, draw: int) -> float:
    """A deterministic uniform draw in ``[0, 1)`` keyed on (seed, draw).

    A fresh ``random.Random`` per draw keeps the schedule a pure function
    of its key — no hidden stream state, no ``PYTHONHASHSEED`` coupling.
    """
    return random.Random(seed * _SEED_MIX + draw).random()


@dataclass(frozen=True)
class RetryPolicy:
    """An exponential-backoff schedule with bounded deterministic jitter.

    ``retries``     — attempts beyond the first (0 disables retrying).
    ``backoff``     — the base delay before the first retry, seconds.
    ``multiplier``  — exponential growth factor per further attempt.
    ``max_backoff`` — cap on the un-jittered delay.
    ``jitter``      — fraction of the delay that may be subtracted:
                      the jittered delay lies in ``[(1-jitter)*d, d]``.
    ``seed``        — jitter RNG seed; same seed, same schedule.
    """

    retries: int = 0
    backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 5.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff <= 0:
            raise ValueError("backoff must be > 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_backoff < self.backoff:
            raise ValueError("max_backoff must be >= backoff")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def base_delay(self, attempt: int) -> float:
        """The un-jittered delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(self.backoff * self.multiplier ** (attempt - 1), self.max_backoff)

    def delay(self, attempt: int, draw: int | None = None) -> float:
        """The jittered delay before retry ``attempt`` (1-based).

        ``draw`` picks the jitter sample independently of the attempt
        number (the broker uses its rejection counter, so concurrent
        rejected clients get *different* pauses off the same base).
        """
        base = self.base_delay(attempt)
        key = attempt if draw is None else draw
        return base * (1.0 - self.jitter * _unit_draw(self.seed, key))

    def delays(self) -> List[float]:
        """The full jittered schedule, one entry per configured retry."""
        return [self.delay(k) for k in range(1, self.retries + 1)]
