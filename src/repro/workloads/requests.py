"""Discovery-request generators.

Section 4 uses two request regimes:

* "services requested were randomly picked among the set of available
  services" — :class:`UniformRequests`;
* the Figure 8 hot spots — "temporarily launching many discovery requests on
  some keys stored in the same region of the tree i.e., lexicographically
  close, in bursts" — :class:`HotSpotRequests` concentrated on a prefix,
  scheduled over time by :class:`repro.workloads.dynamics.PhasedSchedule`.

:class:`ZipfRequests` is an extension (skewed popularity without locality)
used by ablation benches.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import weakref
from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable


from .keys import keys_with_prefix


@runtime_checkable
class RequestGenerator(Protocol):
    """Draws the key of the next discovery request.

    A structural protocol: any object with a ``sample(rng, available_keys)``
    method qualifies.  ``@runtime_checkable`` lets the config layer validate
    user-supplied generators with ``isinstance`` at parse time instead of
    failing deep inside the simulation loop.
    """

    def sample(self, rng, available_keys: Sequence[str]) -> str:
        """Return the key of the next request drawn from ``available_keys``."""
        raise NotImplementedError


@runtime_checkable
class WorkloadSchedule(Protocol):
    """A time-varying workload: what the experiment runner consumes.

    Distinguished from a plain :class:`RequestGenerator` by the extra
    ``unit`` argument and by ``generator_at`` — the per-unit slice used by
    schedule composition (:class:`repro.workloads.dynamics.MixedSchedule`)
    and by tests.  ``rate_multiplier`` scales the number of requests issued
    in a unit (1.0 = the config's nominal load).
    """

    def sample(self, unit: int, rng, available_keys: Sequence[str]) -> str:
        """Return the key requested at time ``unit``."""
        raise NotImplementedError

    def generator_at(self, unit: int) -> RequestGenerator:
        """The generator in force at time ``unit``."""
        raise NotImplementedError

    def rate_multiplier(self, unit: int) -> float:
        """Scale factor on the nominal request rate at time ``unit``."""
        raise NotImplementedError

    def phase_windows(self, total_units: int) -> "List[Tuple[str, int, int]]":
        """Named ``(name, start, end)`` windows covering ``[0, total_units)``
        — the axis of per-phase metric breakdowns."""
        raise NotImplementedError


class UniformRequests:
    """Uniform over the currently available keys."""

    name = "uniform"

    def sample(self, rng, available_keys: Sequence[str]) -> str:
        return available_keys[rng.randrange(len(available_keys))]


class HotSpotRequests:
    """With probability ``intensity``, request a key under ``prefix``;
    otherwise fall back to uniform.  Models a library suddenly becoming
    popular (S3L between units 40–80, ScaLAPACK's ``P`` after 80)."""

    def __init__(self, prefix: str, intensity: float = 0.8) -> None:
        if not 0.0 < intensity <= 1.0:
            raise ValueError("intensity must be in (0, 1]")
        self.prefix = prefix
        self.intensity = intensity
        self.name = f"hotspot:{prefix}"
        self._cached_for: Optional[tuple[int, str]] = None
        self._hot: list[str] = []

    def _hot_keys(self, available_keys: Sequence[str]) -> list[str]:
        # The key population changes only when the tree grows; cache per
        # (size, first key) fingerprint to avoid rescanning every draw.
        fingerprint = (len(available_keys), available_keys[0] if available_keys else "")
        if self._cached_for != fingerprint:
            self._hot = keys_with_prefix(available_keys, self.prefix)
            self._cached_for = fingerprint
        return self._hot

    def sample(self, rng, available_keys: Sequence[str]) -> str:
        hot = self._hot_keys(available_keys)
        if hot and rng.random() < self.intensity:
            return hot[rng.randrange(len(hot))]
        return available_keys[rng.randrange(len(available_keys))]


#: How many generators have already captured each live seed RNG.  Two
#: generators *sharing* one ``Random`` object behave differently at run
#: time (the first's permutation draw advances the second's stream), so
#: the share index enters the seed fingerprint; two *independent*
#: equal-seed RNGs (share index 0 each) still fingerprint identically.
_SEED_RNG_SHARES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class ZipfRequests:
    """Zipf(s) popularity over a fixed key ranking (rank 1 = hottest).

    The ranking permutation is drawn once per generator from ``seed_rng`` so
    repeated units target the same hot keys.

    The rank weights ``1/(i+1)^s`` depend only on the rank, never on the
    corpus, so they are cached and merely *extended* when the corpus grows
    mid-run (every growth unit changes the corpus size; re-raising
    thousands of ranks to a float power per unit was pure waste).  The CDF
    normalisation is recomputed from the cached weights — same floats,
    identical draws — and the ranking permutation is redrawn exactly as
    before (its RNG consumption is part of the recorded stream).
    """

    def __init__(self, s: float = 1.0, seed_rng=None) -> None:
        if s <= 0:
            raise ValueError("Zipf exponent must be positive")
        self.s = s
        self.name = f"zipf:{s}"
        self._perm: Optional[list[int]] = None
        self._cdf: list[float] = []
        self._n = 0
        self._weights: list[float] = []  # extended, never rebuilt
        #: Rank-weight power evaluations performed (regression-tested: must
        #: stay linear in the largest corpus seen, not in corpus × units).
        self.weight_evals = 0
        self._seed_rng = seed_rng
        # Pristine-state fingerprint, captured before any draw mutates the
        # RNG: the semantic identity of the ranking permutation this
        # generator will produce (consumed by workload_signature — a live
        # getstate() there would change across the generator's lifetime).
        # The share index distinguishes generators aliasing one RNG object,
        # whose pristine states are equal but whose runtime streams differ.
        if seed_rng is None:
            self._seed_fingerprint: Optional[str] = None
        else:
            try:
                share_index = _SEED_RNG_SHARES.get(seed_rng, 0)
                _SEED_RNG_SHARES[seed_rng] = share_index + 1
            except TypeError:  # non-weakrefable RNG stand-in
                share_index = 0
            self._seed_fingerprint = hashlib.sha256(
                repr((share_index, seed_rng.getstate())).encode()
            ).hexdigest()

    def _prepare(self, n: int, rng) -> None:
        if self._n == n:
            return
        weights = self._weights
        if len(weights) < n:
            s = self.s
            self.weight_evals += n - len(weights)
            weights.extend(1.0 / (i + 1) ** s for i in range(len(weights), n))
        active = weights if len(weights) == n else weights[:n]
        total = sum(active)
        self._cdf = list(itertools.accumulate(w / total for w in active))
        order_rng = self._seed_rng or rng
        perm = list(range(n))
        order_rng.shuffle(perm)
        self._perm = perm
        self._n = n

    def sample(self, rng, available_keys: Sequence[str]) -> str:
        n = len(available_keys)
        self._prepare(n, rng)
        rank = bisect.bisect_left(self._cdf, rng.random())
        rank = min(rank, n - 1)
        return available_keys[self._perm[rank]]


def generator_name(generator: object) -> str:
    """Display name of a generator or schedule (legends, phase tables)."""
    return getattr(generator, "name", type(generator).__name__)
