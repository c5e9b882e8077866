"""One retry/backoff policy for the whole runtime.

:class:`RetryPolicy` is the schedule the client's RPC retries
(:class:`~repro.net.client.DLPTClient`) and the socket transport's link
dials (:class:`~repro.net.asyncio_transport.AsyncioTransport`) both sleep
by; how many attempts to make is each caller's loop.  It is the classic
exponential schedule ``backoff * MULTIPLIER**(attempt-1)``, capped at
:data:`MAX_BACKOFF`, minus **bounded deterministic jitter**: the delay for
attempt ``k`` is drawn uniformly from ``[(1 - JITTER) * d, d]`` by an RNG
seeded from ``(seed, k)``.  Without jitter, synchronized clients retry in
lockstep (a retry storm: every waiter sleeps the identical delay and
stampedes back at the same instant); seeded per caller, two processes
desynchronize, while a test re-running the same policy sees the exact
same delays.  Jitter only ever *shortens* a delay, so every timeout
bound stays valid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Growth factor of the delay per further attempt.
MULTIPLIER = 2.0

#: Cap on the un-jittered delay, seconds.
MAX_BACKOFF = 5.0

#: Fraction of the delay jitter may subtract: a delay lies in
#: ``[(1 - JITTER) * d, d]``.
JITTER = 0.25

#: Mixing constant for the per-attempt jitter RNG seed (a prime large
#: enough that (seed, attempt) pairs never collide for realistic values).
_SEED_MIX = 1_000_003


@dataclass(frozen=True)
class RetryPolicy:
    """An exponential-backoff schedule with bounded deterministic jitter:
    ``backoff`` is the delay before the first retry in seconds, ``seed``
    keys the jitter (same seed, same schedule)."""

    backoff: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.backoff <= MAX_BACKOFF:
            raise ValueError(f"backoff must be in (0, {MAX_BACKOFF}]")

    def delay(self, attempt: int) -> float:
        """The jittered delay before retry ``attempt`` (1-based).

        A fresh ``random.Random`` per draw keeps the schedule a pure
        function of ``(seed, attempt)`` — no hidden stream state, no
        ``PYTHONHASHSEED`` coupling.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(self.backoff * MULTIPLIER ** (attempt - 1), MAX_BACKOFF)
        draw = random.Random(self.seed * _SEED_MIX + attempt).random()
        return base * (1.0 - JITTER * draw)
