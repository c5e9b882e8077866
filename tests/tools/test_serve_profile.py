"""``tools/serve_profile.py``: the sample arithmetic, on canned stacks (the
live run — a served child under ``ITIMER_PROF`` — is CI's ``net-conformance``
smoke)."""

from __future__ import annotations

import importlib.util
import pathlib

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
