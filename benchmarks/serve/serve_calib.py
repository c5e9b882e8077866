"""Calibration unit and segment arithmetic of the ``serve`` benchmark.

Raw wall-clock on the shared 2-vCPU hosts this benchmark runs on cannot
repeat within a tenth (README, "Why calibrate").  Every timing metric is
therefore measured per *segment* of the op stream, and each segment's
times are rescaled by how fast the host ran a frozen unit of work
immediately before and after it.  The reported numbers are
**reference-machine milliseconds**: a machine that runs
:func:`calib_unit` in exactly :data:`REF_UNIT_MS`.

FROZEN: :func:`calib_unit`, :data:`CALIB_FRAME` and :data:`REF_UNIT_MS`
define the unit of every committed number.  Editing any of them silently
rescales every metric against the committed baseline — never do it.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from typing import Dict, List, Sequence

#: The reference machine runs one calibration unit in this many ms.
REF_UNIT_MS = 2.0

#: A frame-shaped dict: the unit exercises the same ``json`` paths the
#: ``repro-wire/1`` codec spends its time in.
CALIB_FRAME = {
    "w": "repro-wire/1",
    "s": "@bench-0",
    "d": "@broker",
    "t": "json",
    "f": {"op": "discover", "key": "pabcdefgh", "id": 12345, "reply_to": "@bench-0"},
}


def calib_unit() -> float:
    """Run the frozen unit of work; returns its wall time in ms."""
    t0 = time.perf_counter()
    x = 0
    for i in range(20000):
        x = (x + i * i) % 1000003
    for _ in range(120):
        json.loads(json.dumps(CALIB_FRAME, sort_keys=True, separators=(",", ":")))
    return (time.perf_counter() - t0) * 1e3


def calib_point() -> float:
    """One calibration reading: the faster of two back-to-back units (a
    single 2 ms sample is too easily inflated by one preemption)."""
    return min(calib_unit(), calib_unit())


def factor(unit_before_ms: float, unit_after_ms: float) -> float:
    """Multiplier turning a raw time into reference-machine time."""
    return REF_UNIT_MS / ((unit_before_ms + unit_after_ms) / 2.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th
    nearest-rank percentile (the guide asks for at least ten)."""
    return n - max(1, math.ceil(q / 100.0 * n))


def segment_stats(
    latencies_s: Sequence[float], wall_s: float, unit_before_ms: float, unit_after_ms: float
) -> Dict[str, float]:
    """The timing metrics of one segment, calibrated and raw."""
    f = factor(unit_before_ms, unit_after_ms)
    n = len(latencies_s)
    p50 = percentile(latencies_s, 50) * 1e3
    p95 = percentile(latencies_s, 95) * 1e3
    p99 = percentile(latencies_s, 99) * 1e3
    return {
        "ops": n,
        "factor": f,
        "ops_per_s": n / (wall_s * f),
        "lat_p50_ms": p50 * f,
        "lat_p95_ms": p95 * f,
        "raw.ops_per_s": n / wall_s,
        "raw.lat_p50_ms": p50,
        "raw.lat_p95_ms": p95,
        "raw.lat_p99_ms": p99,
    }


def median_over_segments(segments: Sequence[Dict[str, float]], name: str) -> float:
    """A run reports each timing metric as the median of its segments."""
    return statistics.median(seg[name] for seg in segments)


def spread_pct(values: Sequence[float]) -> float:
    """Inter-quartile distance as a percentage of the median — the
    repeatability figure the driver computes over ten seeds."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return 100.0 * (q3 - q1) / statistics.median(values)


def cpu_blocks(
    segments: Sequence[Dict[str, float]], min_block_s: float = 1.0
) -> List[float]:
    """Calibrated server CPU ms per op over blocks of consecutive
    segments each spanning at least ``min_block_s`` of wall time
    (``/proc/<pid>/stat`` ticks are 10 ms, so a single short segment
    would quantise badly).  Segments carry ``cpu_s``, ``wall_s``,
    ``ops`` and ``factor``."""
    blocks: List[float] = []
    cpu = wall = weighted = 0.0
    ops = 0
    for seg in segments:
        cpu += seg["cpu_s"]
        wall += seg["wall_s"]
        ops += seg["ops"]
        weighted += seg["factor"] * seg["wall_s"]
        if wall >= min_block_s:
            blocks.append(cpu * 1e3 / ops * (weighted / wall))
            cpu = wall = weighted = 0.0
            ops = 0
    if not blocks and ops:
        blocks.append(cpu * 1e3 / ops * (weighted / wall))
    return blocks
