"""How many worker processes a batch of runs gets.

The paper's sweeps repeat every configuration 30–100 times; runs are
embarrassingly parallel (independent seeds), so
:func:`repro.experiments.runner.run_many_configs` fans them out over a
process pool — the unit of work is one whole simulation run (seconds of
work per task, so IPC overhead is negligible).  This module is the one
sizing policy behind that pool: an explicit ``workers`` argument
(``--workers``), else the ``REPRO_WORKERS`` environment variable, else the
CPU count.
"""

from __future__ import annotations

import os
from typing import Optional


def env_workers(default: Optional[int] = None) -> Optional[int]:
    """The ``REPRO_WORKERS`` override, or ``default`` when unset/empty.

    ``REPRO_WORKERS`` must be a positive integer; anything else raises a
    ``ValueError`` naming the variable (a typo'd override should fail
    loudly, not silently fall back to one worker or crash deep inside a
    pool start-up).
    """
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if not env:
        return default
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS={env!r} is not an integer; set a positive "
            "worker count or unset the variable"
        ) from None
    if workers < 1:
        raise ValueError(
            f"REPRO_WORKERS={env!r} must be >= 1 (use 1 to force "
            "sequential execution)"
        )
    return workers


def default_workers() -> int:
    """Worker count when none is requested explicitly: the
    ``REPRO_WORKERS`` environment variable if set (validated, >= 1, *not*
    capped — an explicit override wins), else the CPU count capped at 16
    (per-task IPC overhead swamps the gain beyond that on one machine)."""
    workers = env_workers()
    if workers is not None:
        return workers
    return min(os.cpu_count() or 1, 16)
