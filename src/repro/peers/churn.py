"""Churn models: stable vs dynamic networks (paper Section 4).

The paper distinguishes a *stable* network — "the number of peers joining and
leaving the system were intentionally low" — from a *dynamic* one — "10% of
the nodes are replaced at each time unit" (peers leave and an equal fraction
joins, keeping the population roughly constant).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChurnModel:
    """Per-time-unit join/leave fractions of the current population.

    Counts are randomised by rounding the expectation stochastically, so a
    5% rate on 100 peers yields 5 events per unit on average even though the
    per-unit count is integral.
    """

    join_fraction: float = 0.0
    leave_fraction: float = 0.0

    def __post_init__(self) -> None:
        for f in (self.join_fraction, self.leave_fraction):
            if not 0.0 <= f < 1.0:
                raise ValueError("churn fractions must be in [0, 1)")

    def joins(self, population: int, rng) -> int:
        return stochastic_round(self.join_fraction * population, rng)

    def leaves(self, population: int, rng) -> int:
        n = stochastic_round(self.leave_fraction * population, rng)
        # Never empty the ring: the overlay is undefined without peers.
        return min(n, max(population - 1, 0))

    @property
    def is_stable(self) -> bool:
        return self.join_fraction == 0.0 and self.leave_fraction == 0.0


def stochastic_round(x: float, rng) -> int:
    """Round ``x`` to an integer with expectation exactly ``x``."""
    base = int(x)
    frac = x - base
    return base + (1 if frac > 0 and rng.random() < frac else 0)


#: Paper's "stable network": a low trickle of membership change.
STABLE = ChurnModel(join_fraction=0.02, leave_fraction=0.02)

#: Paper's "dynamic network": 10% of peers replaced every unit.
DYNAMIC = ChurnModel(join_fraction=0.10, leave_fraction=0.10)

#: No churn at all (unit tests, micro-benchmarks).
FROZEN = ChurnModel(join_fraction=0.0, leave_fraction=0.0)
