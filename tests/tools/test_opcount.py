"""``tools/opcount.py``: a served op stream counted twice gives the same
ledger to the opcode, its layers sum to its total, generated code is
billed to the layer that ran it, and the committed ledger ``OPCOUNT.json``
is what the code costs now, layer by layer."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
TOOL = REPO / "tools" / "opcount.py"
LEDGER = REPO / "OPCOUNT.json"

_spec = importlib.util.spec_from_file_location("opcount", TOOL)
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)


def _run(out: pathlib.Path, *args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(TOOL), *(args or ("--ops", "20", "--preload", "100")), "--out", str(out)],
        cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=300,
    )
    assert done.returncode == 0, done.stdout.decode()[-2000:]
    return opcount.read_block(out)


def test_two_runs_count_the_same_and_the_layers_sum_to_the_total(tmp_path):
    """Each run is its own process (its own hash seed): the whole ledger,
    every function included, must be equal."""
    first, second = _run(tmp_path / "a.json"), _run(tmp_path / "b.json")
    assert first == second
    assert first["schema"] == "repro-opcount/1"
    assert list(first["streams"]) == list(opcount.STREAMS)
    for name, stream in first["streams"].items():
        layers = stream["layers"]
        assert stream["ops"] == 20, name
        assert sum(row["opcodes"] for row in layers.values()) == stream["opcodes"], name
        assert sum(row["c_calls"] for row in layers.values()) == stream["c_calls"], name
        assert sum(row["opcodes"] for row in stream["functions"].values()) == stream["opcodes"], name
        for layer in ("engine", "cluster", "broker", "transport", "codec", "client", "asyncio"):
            assert layers[layer]["opcodes"] > 0, (name, layer)
        assert layers["other"]["opcodes"] == 0, name  # every executed file has a layer
        assert stream["messages"] > 0 and stream["loop_turns"] > 0, name


def test_files_map_to_layers(tmp_path):
    root = str(tmp_path / "src" / "repro")
    layers = opcount.Layers(root)
    stdlib = os.path.dirname(os.__file__)
    assert layers.of(os.path.join(root, "net", "wire.py")) == "codec"
    assert layers.of(os.path.join(root, "net", "cluster.py")) == "cluster"
    assert layers.of(os.path.join(root, "dlpt", "protocol.py")) == "engine"
    assert layers.of(os.path.join(root, "net", "serve.py")) == "repro"
    assert layers.of(os.path.join(stdlib, "json", "decoder.py")) == "json"
    assert layers.of(os.path.join(stdlib, "asyncio", "events.py")) == "asyncio"
    assert layers.of(os.path.join(stdlib, "selectors.py")) == "stdlib"
    assert layers.of("<frozen importlib._bootstrap>") == "stdlib"
    assert layers.of(str(TOOL)) == "tool"
    assert layers.relative(os.path.join(root, "net", "wire.py")) == "net/wire.py"


def test_generated_code_is_billed_to_its_caller():
    @dataclasses.dataclass
    class Point:
        x: int
        y: int

    def make():
        return Point(1, 2)

    ledger = opcount.Ledger()
    ledger.arm()
    try:
        make()
    finally:
        ledger.disarm()
    billed = {code.co_name for code in ledger.opcodes}
    assert "make" in billed and "__init__" not in billed
    assert all(code.co_filename != "<string>" for code in ledger.opcodes)


def test_disarm_gives_tracing_back_to_an_outer_tracer():
    """A ledger armed under another tracer (the line census, a debugger)
    hands tracing back on disarm: the global trace and profile functions
    and the running frame's own trace, so the outer tool sees every frame
    after the measured window."""
    seen = []

    def outer(frame, event, arg):
        seen.append(frame.f_code.co_name)
        return outer

    def profile(frame, event, arg):
        pass

    def after_the_window():
        return 1

    previous = (sys.gettrace(), sys.getprofile())
    here = sys._getframe()
    saved_frame_trace = here.f_trace
    sys.setprofile(profile)
    sys.settrace(outer)
    here.f_trace = outer
    try:
        ledger = opcount.Ledger()
        ledger.arm()
        ledger.disarm()
        back = (sys.gettrace(), sys.getprofile(), here.f_trace)
        after_the_window()
    finally:
        sys.setprofile(previous[1])
        sys.settrace(previous[0])
        here.f_trace = saved_frame_trace
    assert back == (outer, profile, outer)
    assert "after_the_window" in seen


def test_the_delta_table_is_per_layer():
    def doc(cluster, codec):
        layers = {layer: {"opcodes_per_op": 0.0} for layer in opcount.LAYERS}
        layers["cluster"]["opcodes_per_op"] = cluster
        layers["codec"]["opcodes_per_op"] = codec
        total = cluster + codec
        return {"streams": {"discover": {
            "workload": "lookup_serial", "ops": 1, "opcodes": total, "c_calls": 2, "layers": layers,
        }}}

    lines = opcount.render_delta(doc(300.0, 400.0), doc(150.0, 400.0)).splitlines()
    assert lines[0] == "discover (lookup_serial): opcodes/op, parent -> this checkout"
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert rows["cluster"] == ["300.0", "150.0", "-150.0", "-50.0%"]
    assert rows["codec"] == ["400.0", "400.0", "+0.0", "+0.0%"]
    assert rows["total"] == ["700.0", "550.0", "-150.0", "-21.4%"]
    assert "engine" not in rows  # a layer that ran nothing on either side


def test_a_parent_that_is_not_a_checkout_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as refused:
        opcount.main(["--parent", str(tmp_path)])
    assert refused.value.code == 2
    assert "not a checkout" in capsys.readouterr().err


def test_out_writes_this_interpreters_block_and_keeps_the_others(tmp_path):
    out = tmp_path / "ledger.json"
    out.write_text(json.dumps({"2.7": {"schema": "old"}}), encoding="utf-8")
    opcount.write_block(out, {"schema": "repro-opcount/1"})
    blocks = json.loads(out.read_text(encoding="utf-8"))
    assert blocks == {"2.7": {"schema": "old"}, opcount.block_name(): {"schema": "repro-opcount/1"}}
    assert opcount.read_block(out) == {"schema": "repro-opcount/1"}
    assert opcount.block_name() == "%d.%d" % sys.version_info[:2]


def test_drift_is_exact_and_only_over_the_layers_in_src():
    def doc(**opcodes):
        layers = {layer: {"opcodes": 100} for layer in opcount.LAYERS}
        for layer, count in opcodes.items():
            layers[layer]["opcodes"] = count
        return {"streams": {"discover": {"layers": layers}}}

    assert opcount.drift(doc(), doc(asyncio=7, stdlib=900, json=1, tool=0)) == []
    assert opcount.drift(doc(), doc(broker=101, engine=99)) == [
        ("discover", "engine", 100, 99), ("discover", "broker", 100, 101),
    ]
    assert set(opcount.SRC_LAYERS) | {"asyncio", "stdlib", "json", "tool", "other"} == set(opcount.LAYERS)


# -- the pinned ledger ------------------------------------------------------------


@pytest.fixture(scope="module")
def pinned_and_measured(tmp_path_factory):
    """``OPCOUNT.json``'s block for this interpreter and a fresh measurement
    of the same streams, in a child process as :func:`_run` makes it."""
    pinned = opcount.read_block(LEDGER)
    if not pinned:
        pytest.skip(
            f"OPCOUNT.json has no block for Python {opcount.block_name()}: "
            "its counts are reported (CI uploads them), not gated"
        )
    measured = _run(tmp_path_factory.mktemp("ledger") / "now.json", *opcount.PINNED_ARGS)
    for stream, record in pinned["streams"].items():
        now = measured["streams"][stream]["plan_sha256"]
        if now != record["plan_sha256"]:
            pytest.skip(
                f"the {stream} stream's op plan is not the pinned one (sha256 {now[:12]}, "
                f"pinned {record['plan_sha256'][:12]}): the benchmark's plan changed, "
                f"so OPCOUNT.json measures another stream; refresh it: {opcount.REFRESH}"
            )
    # The layers outside src/repro move with the interpreter's patch
    # release: shown (pytest -s, or beside a failure), never gated.
    for stream, record in pinned["streams"].items():
        now = measured["streams"][stream]["layers"]
        moved = {
            layer: now[layer]["opcodes"] - row["opcodes"]
            for layer, row in record["layers"].items()
            if layer not in opcount.SRC_LAYERS and now[layer]["opcodes"] != row["opcodes"]
        }
        print(f"{stream}: ungated layers moved by {moved or 'nothing'}")
    return pinned, measured


def _moved(rows) -> str:
    return "; ".join(f"{stream} {layer} {was} -> {now} ({now - was:+d})" for stream, layer, was, now in rows)


def test_no_layer_in_src_costs_more_than_pinned(pinned_and_measured):
    rises = [row for row in opcount.drift(*pinned_and_measured) if row[3] > row[2]]
    assert not rises, f"opcodes rose over OPCOUNT.json: {_moved(rises)}"


def test_a_layer_that_costs_less_is_pinned(pinned_and_measured):
    falls = [row for row in opcount.drift(*pinned_and_measured) if row[3] < row[2]]
    assert not falls, (
        f"opcodes fell below OPCOUNT.json: {_moved(falls)}; pin the gain: {opcount.REFRESH}"
    )
