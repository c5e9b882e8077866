"""Declarative sweep plans: the cell grid behind paper reproduction.

The paper repeats every (mapping × balancer × workload) configuration
30–100 times (Figures 4–10 of conf_ipps_CaronDT08); a *sweep plan* names
that grid explicitly instead of hand-driving ``run_many`` per point.  The
unit is the :class:`SweepCell` — one fully resolved
:class:`~repro.experiments.config.ExperimentConfig` plus its repetition
count — and a cell's identity is the **cell hash**: SHA-256 over the
canonical JSON of the resolved config signature
(:meth:`ExperimentConfig.signature`) and ``n_runs``.

Hash stability rules (documented in ``docs/reproduction.md``):

* the hash covers *semantic* fields only — platform, workload, balancer
  parameters, seed, repetition count; presentation (the cell ``label``)
  is excluded;
* canonical JSON sorts keys, so dict ordering can never change a hash;
* the corpus contributes a content hash, not the key list, keeping
  signatures small at 10⁵-key scale;
* per-run randomness derives from ``(config.seed, run_index)``, so a
  cell's hash pins its entire result — this is what makes the result
  store (:mod:`repro.sweeps.store`) safe to share between machines.

Sharding: :meth:`SweepCell.shard_of` assigns each cell to one of ``n``
shards by its hash, so every shard of a multi-machine sweep computes a
disjoint, deterministic slice with no coordination beyond the shared
store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..experiments.config import ExperimentConfig


def canonical_json(doc: object) -> str:
    """The one serialisation hashes are computed over: sorted keys, no
    whitespace.  Using a single helper everywhere is what makes the
    "ordering never matters" rule enforceable."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def signature_hash(signature: Dict[str, object]) -> str:
    """SHA-256 hex digest of a signature's canonical JSON."""
    return hashlib.sha256(canonical_json(signature).encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class SweepCell:
    """One grid point: a resolved config, how often to repeat it, and a
    display label (presentation only — never part of the identity)."""

    config: ExperimentConfig
    n_runs: int
    label: str

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError("a sweep cell needs n_runs >= 1")
        # The cell is frozen, so hash once: signature() re-hashes the whole
        # corpus, and planning/sharding/execution ask for the key often.
        object.__setattr__(self, "_key", signature_hash(self.signature()))

    def signature(self) -> Dict[str, object]:
        """The resolved identity the store keys on: config + repetitions."""
        return {"config": self.config.signature(), "n_runs": self.n_runs}

    def key(self) -> str:
        """The cell hash (stable across processes, machines, dict orders)."""
        return self._key

    def shard_of(self, n_shards: int) -> int:
        """Which of ``n_shards`` owns this cell (hash-partitioned)."""
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        return int(self.key()[:16], 16) % n_shards


@dataclass
class SweepPlan:
    """A named, de-duplicated list of cells.

    Cells whose hashes collide are the *same* experiment (e.g. Figure 4's
    stable/low-load point reappearing as Table 1's 10% row); the plan keeps
    the first occurrence so shared points are computed once and cached for
    every consumer.
    """

    name: str
    cells: List[SweepCell] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        deduped: List[SweepCell] = []
        for cell in self.cells:
            key = cell.key()
            if key not in seen:
                seen.add(key)
                deduped.append(cell)
        self.cells = deduped

    def __len__(self) -> int:
        return len(self.cells)

    def keys(self) -> List[str]:
        return [cell.key() for cell in self.cells]

    def shard_split(
        self, shard: int, n_shards: int
    ) -> Tuple[List[SweepCell], List[SweepCell]]:
        """``(own, foreign)`` cells for ``--shard shard/n_shards``.

        ``own`` is this shard's deterministic slice; ``foreign`` is every
        other shard's — the work-stealing pool an idle shard falls back to
        (see :func:`repro.sweeps.orchestrator.run_sweep`).
        """
        if not 0 <= shard < n_shards:
            raise ValueError(
                f"shard must satisfy 0 <= shard < n_shards, got {shard}/{n_shards}"
            )
        own = [c for c in self.cells if c.shard_of(n_shards) == shard]
        foreign = [c for c in self.cells if c.shard_of(n_shards) != shard]
        return own, foreign


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse the CLI's ``--shard i/n`` form (e.g. ``0/4``)."""
    try:
        index_text, _, total_text = text.partition("/")
        shard = (int(index_text), int(total_text))
    except ValueError:
        raise ValueError(
            f"--shard must look like i/n (e.g. 0/4), got {text!r}"
        ) from None
    if not 0 <= shard[0] < shard[1]:
        raise ValueError(
            f"--shard needs 0 <= i < n, got {text!r}"
        )
    return shard


def plan_from_cells(name: str, cells: Sequence[SweepCell]) -> SweepPlan:
    """Build a plan, preserving order, de-duplicating by cell hash."""
    return SweepPlan(name=name, cells=list(cells))
