"""``tools/serve_profile.py``: the sample arithmetic on canned stacks, the
loop-turn and minor-fault counters and the summary line (the
live run — a served child under ``ITIMER_PROF`` — is CI's ``net-conformance``
smoke)."""

from __future__ import annotations

import asyncio
import importlib.util
import mmap
import pathlib
import types

REPO = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("serve_profile", REPO / "tools" / "serve_profile.py")
serve_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(serve_profile)

MAIN, LOOP = ["tool.py", 1, "main"], ["asyncio/base_events.py", 593, "run_forever"]
PUMP, SEND, INIT = ["t.py", 10, "_pump"], ["t.py", 20, "send"], ["<string>", 2, "__init__"]


def test_tables_count_a_function_once_per_sample_and_drop_the_shared_root():
    samples = [
        [[INIT, SEND, PUMP, LOOP, MAIN], 3],  # innermost first
        [[SEND, PUMP, PUMP, LOOP, MAIN], 2],  # recursion: _pump counted once
        [[LOOP, MAIN], 1],  # the idle loop itself: never stripped to nothing
    ]
    total, inclusive, leaf = serve_profile.tables(samples)
    assert total == 6
    assert leaf == {tuple(INIT): 3, tuple(SEND): 2, tuple(LOOP): 1}
    assert inclusive == {tuple(PUMP): 5, tuple(SEND): 5, tuple(INIT): 3, tuple(LOOP): 6}
    assert tuple(MAIN) not in inclusive


def test_render_ranks_by_share():
    _, inclusive, _ = serve_profile.tables([[[SEND, PUMP, MAIN], 3], [[PUMP, MAIN], 1]])
    lines = serve_profile.render("inclusive", inclusive, 4, top=1).splitlines()
    assert lines[0] == "inclusive (top 1 of 2 functions, 4 samples)"
    assert lines[1].split() == ["100.00%", "4", "t.py:10", "_pump"]


def test_loop_turns_are_counted_only_while_armed():
    async def spin(n):
        for _ in range(n):
            await asyncio.sleep(0)

    turns = serve_profile.LoopTurns()
    asyncio.run(spin(5))
    assert turns.count == 0
    turns.arm()
    try:
        asyncio.run(spin(10))
    finally:
        turns.disarm()
    armed = turns.count
    assert armed >= 10
    asyncio.run(spin(5))
    assert turns.count == armed


def _touch_fresh_pages(size: int = 4 << 20) -> None:
    """Write one byte per page of a new anonymous mapping: every page is a
    minor fault (a huge page covers several, so fewer than pages)."""
    with mmap.mmap(-1, size) as region:
        for offset in range(0, size, mmap.PAGESIZE):
            region[offset] = 1


def test_minor_faults_are_counted_only_while_armed():
    usage = serve_profile.ArmedUsage()
    _touch_fresh_pages()
    assert usage.at is None and usage.minflt == 0
    usage.arm()
    try:
        _touch_fresh_pages()
    finally:
        usage.disarm()
    armed = usage.minflt
    assert armed > 0 and usage.cpu_s > 0
    _touch_fresh_pages()
    assert usage.minflt == armed


def test_disarm_reads_the_footprint():
    usage = serve_profile.ArmedUsage()
    assert usage.vmhwm_kb == 0 == usage.threads
    usage.arm()
    usage.disarm()
    assert usage.vmhwm_kb > 1024 and usage.threads >= 1


def test_headline_prints_cpu_and_loop_turns_per_op():
    tally = types.SimpleNamespace(attempted=2000, failed=0)
    doc = {"cpu_s": 0.42, "turns": 6100, "minflt": 4020, "vmhwm_kb": 27290, "threads": 1}
    line = serve_profile.headline("scan_batch", 2000, 1.5, tally, 480, doc)
    assert line == (
        "scan_batch seed 1: 2000 measured ops in 1.50s, 2000 verified, 0 failed; "
        "480 samples over 0.42s of child CPU (0.210 ms/op, 3.05 loop turns/op, "
        "2.01 minor faults/op); child peak RSS 26.7 MB, 1 OS threads"
    )
