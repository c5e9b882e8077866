"""What a served operation costs, per layer, as exact counts: Python opcodes and C calls per op.

    python3 tools/opcount.py [--stream S ...] [--ops N] [--preload N] [--by function]
                             [--parent CHECKOUT] [--out FILE]

Brings up ``start_cluster(128, path=…)`` (the served ring of ``python -m repro
serve --peers 128``) and one ``DLPTClient`` over its UNIX socket, all in this
process, preloads ``--preload`` keys, runs a warm-up, then the measured ops of
each named stream with ``sys.settrace`` (``frame.f_trace_opcodes``: one event
per executed bytecode) and ``sys.setprofile`` (one event per C function
called from Python) armed around the measured ops only.  Every executed
bytecode and every C call is billed to the module of the frame that ran it,
and modules group into layers (:data:`LAYERS`), so the layers sum to the
total by construction.  Client and server share the process, so the client's
side of each RPC (``net/client.py``, its ``asyncio`` streams) is in the count
under its own layers.

A stream replays the op mix of one workload of the serve benchmark, whose
seeded ``Plan`` (and reply ``Oracle``) this imports read-only from
``benchmarks/serve``: same keys, same ops, same joining and leaving peers as
``benchmarks/serve/run.py --workload W --seed 1``.  Every reply is checked
against the oracle after the tracer is disarmed; a wrong reply exits 1.

=========  ===============  =========================================================
stream     workload         what is issued
=========  ===============  =========================================================
discover   lookup_serial    one ``discover`` at a time
register   register_churn   fresh-key ``register`` (70%), ``discover`` of recent keys
                            (22%), ``peer_join`` / ``peer_leave`` (8%), one at a time
scan       scan_batch       16-key ``discover_batch``, prefix completion and range
                            scans, one at a time
fanin      lookup_fanin     the ``discover`` stream, 8 at a time
                            (``asyncio.gather``), so the broker serves read groups
=========  ===============  =========================================================

The counts are interpreter work, not time: C work shows only as a call
count, syscalls not at all, and bytecode differs between Python minor
versions.  They do not move between runs or hosts of one interpreter.
``--out FILE`` writes a ``repro-opcount/1`` document (integer totals, and
per-op figures, per stream and per layer, plus every function and the
``sha256`` of each stream's op plan) as this interpreter's block of FILE,
keyed ``major.minor``; the other interpreters' blocks in FILE are kept.
``--by function`` also prints the top functions per stream; ``--parent
CHECKOUT`` measures that checkout's ``src`` too, both sides in fresh child
processes, and prints the exact per-layer delta.  Stdlib only.

The committed ``OPCOUNT.json`` is the pinned ledger, made by
:data:`REFRESH`: ``tests/tools/test_opcount.py`` measures again and fails
when a layer whose code lives in ``src/repro`` (:data:`SRC_LAYERS`) costs
more or less than pinned (:func:`drift`).
"""
from __future__ import annotations

import argparse
import asyncio
import collections
import gc
import json
import os
import pathlib
import shutil
import subprocess
import sys
import sysconfig
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
BENCH = REPO / "benchmarks" / "serve"
SCHEMA = "repro-opcount/1"

#: stream -> (serve-benchmark workload whose op mix it replays, ops in flight).
STREAMS = {
    "discover": ("lookup_serial", 1),
    "register": ("register_churn", 1),
    "scan": ("scan_batch", 1),
    "fanin": ("lookup_fanin", 8),
}
SEED = 1
WARMUP_OPS = 50
TOP = 25  # rows of the per-function table

#: Layers, in print order.  ``tool`` is this tool and the benchmark's
#: ``issue``; ``stdlib`` is every other standard-library module.
LAYERS = (
    "engine", "cluster", "broker", "transport", "codec", "json", "client", "core",
    "asyncio", "stdlib", "repro", "tool", "other",
)

#: The layers whose code lives in ``src/repro``: what the pinned ledger
#: gates.  The rest move with the interpreter's patch release.
SRC_LAYERS = ("engine", "cluster", "broker", "transport", "codec", "client", "core", "repro")

#: The stream length and tree size the pinned ledger, ``OPCOUNT.json``, is
#: measured at, and the command that makes it.  It preloads the benchmark's
#: 3 000 keys, so a set query scans a band as large as in a gated run.
PINNED_ARGS = ("--ops", "50", "--preload", "3000")
REFRESH = f"python3 tools/opcount.py {' '.join(PINNED_ARGS)} --out OPCOUNT.json"

#: ``src/repro`` module or package (relative path) -> layer; the rest of
#: ``src/repro`` is ``repro``.
REPRO_LAYERS = {
    "dlpt": "engine",
    "net/cluster.py": "cluster",
    "net/procgroup.py": "cluster",
    "net/bootstrap.py": "broker",
    "net/asyncio_transport.py": "transport",
    "net/transport.py": "transport",
    "net/chaos.py": "transport",
    "net/wire.py": "codec",
    "net/client.py": "client",
    "net/policy.py": "client",
    "core": "core",
}


class Layers:
    """Filename -> layer, for the ``repro`` package rooted at ``root``."""

    def __init__(self, root: str) -> None:
        self.root = root + os.sep
        stdlib = sysconfig.get_paths()["stdlib"]
        self.prefixes = [
            (os.path.join(stdlib, "json") + os.sep, "json"),
            (os.path.join(stdlib, "asyncio") + os.sep, "asyncio"),
            (str(BENCH) + os.sep, "tool"),
            (stdlib + os.sep, "stdlib"),
        ]
        self._memo: dict = {__file__: "tool"}

    def relative(self, filename: str) -> str:
        """``filename`` relative to ``src/repro`` (the same on both sides of
        ``--parent``), else its last two path parts."""
        if filename.startswith(self.root):
            return filename[len(self.root):].replace(os.sep, "/")
        return "/".join(pathlib.PurePath(filename).parts[-2:])

    def of(self, filename: str) -> str:
        layer = self._memo.get(filename)
        if layer is None:
            layer = self._memo[filename] = self._classify(filename)
        return layer

    def _classify(self, filename: str) -> str:
        if filename.startswith(self.root):
            rel = self.relative(filename)
            return REPRO_LAYERS.get(rel) or REPRO_LAYERS.get(rel.split("/")[0], "repro")
        if filename.startswith("<frozen "):
            return "stdlib"
        for prefix, layer in self.prefixes:
            if filename.startswith(prefix):
                return layer
        return "other"


class Ledger:
    """Executed opcodes, C calls and frame entries (calls and coroutine
    resumes) per code object, between :meth:`arm` and :meth:`disarm`."""

    def __init__(self) -> None:
        self.opcodes: collections.Counter = collections.Counter()
        self.c_calls: collections.Counter = collections.Counter()
        self.entries: collections.Counter = collections.Counter()
        #: What was tracing before :meth:`arm`: (trace, profile, [frame state]).
        self._saved: tuple = (None, None, [])

    @staticmethod
    def billed(frame):
        """The code a frame's work is billed to: its own, except for code
        generated at run time (``dataclasses``' ``__init__``, file
        ``<string>``), which bills the caller that ran it."""
        code = frame.f_code
        return frame.f_back.f_code if code.co_filename == "<string>" else code

    def _counter(self, code):
        opcodes = self.opcodes

        def on_event(frame, event, arg):
            if event == "opcode":
                opcodes[code] += 1
            return on_event

        return on_event

    def _on_entry(self, frame, event, arg):
        self.entries[frame.f_code] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._counter(self.billed(frame))

    def _on_profile(self, frame, event, arg):
        if event == "c_call":
            self.c_calls[self.billed(frame)] += 1

    def arm(self) -> None:
        """Trace every frame from here on, and the caller's stack too (the
        frames already running: the event loop and this tool's own).  What
        was tracing before (a coverage tool, a debugger) is saved."""
        self._saved = (sys.gettrace(), sys.getprofile(), [])
        frame = sys._getframe(1)
        while frame is not None:
            self._saved[2].append((frame, frame.f_trace, frame.f_trace_lines, frame.f_trace_opcodes))
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            frame.f_trace = self._counter(self.billed(frame))
            frame = frame.f_back
        sys.setprofile(self._on_profile)
        sys.settrace(self._on_entry)

    def disarm(self) -> None:
        """Stop counting and give tracing back to what :meth:`arm` found."""
        sys.settrace(None)
        sys.setprofile(None)
        trace, profile, frames = self._saved
        for frame, f_trace, lines, opcodes in frames:
            frame.f_trace, frame.f_trace_lines, frame.f_trace_opcodes = f_trace, lines, opcodes
        self._saved = (None, None, [])
        sys.setprofile(profile)
        sys.settrace(trace)


def _function(layers: Layers, code) -> str:
    name = getattr(code, "co_qualname", code.co_name)
    return f"{layers.relative(code.co_filename)}:{code.co_firstlineno} {name}"


def tally(ledger: Ledger, layers: Layers, n_ops: int) -> dict:
    """The ``repro-opcount/1`` record of one stream from ``ledger``."""
    per_layer = {layer: {"opcodes": 0, "c_calls": 0} for layer in LAYERS}
    functions: dict = {}
    for counts, field in ((ledger.opcodes, "opcodes"), (ledger.c_calls, "c_calls")):
        for code, count in counts.items():
            layer = layers.of(code.co_filename)
            per_layer[layer][field] += count
            row = functions.setdefault(_function(layers, code), {"layer": layer, "opcodes": 0, "c_calls": 0})
            row[field] += count
    for row in per_layer.values():
        row["opcodes_per_op"] = row["opcodes"] / n_ops
        row["c_calls_per_op"] = row["c_calls"] / n_ops
    turns = sum(
        count for code, count in ledger.entries.items()
        if code.co_name == "_run_once" and layers.of(code.co_filename) == "asyncio"
    )
    return {
        "ops": n_ops,
        "opcodes": sum(row["opcodes"] for row in per_layer.values()),
        "c_calls": sum(row["c_calls"] for row in per_layer.values()),
        "loop_turns": turns,
        "layers": per_layer,
        "functions": dict(sorted(functions.items(), key=lambda item: (-item[1]["opcodes"], item[0]))),
    }


# -- one stream on a served ring -------------------------------------------------


async def _issue_all(client, ops: list, in_flight: int) -> list:
    """Replies (or the exceptions raised instead) to ``ops``, ``in_flight``
    at a time."""
    from serve_workloads import issue

    replies = []
    if in_flight == 1:
        for op in ops:
            try:
                replies.append(await issue(client, op))
            except Exception as exc:
                replies.append(exc)
        return replies
    for i in range(0, len(ops), in_flight):
        batch = [issue(client, op) for op in ops[i:i + in_flight]]
        replies.extend(await asyncio.gather(*batch, return_exceptions=True))
    return replies


async def run_stream(stream: str, n_ops: int, n_preload: int) -> tuple:
    """Measure ``stream``: returns ``(record, failures)``."""
    from serve_workloads import N_PEERS, Oracle, Plan

    import repro
    from repro.net.client import DLPTClient
    from repro.net.serve import start_cluster

    workload, in_flight = STREAMS[stream]
    plan = Plan(workload, SEED, WARMUP_OPS + n_ops, n_preload=n_preload)
    scratch = tempfile.mkdtemp(prefix="repro-opcount-")  # short: UNIX-socket paths are length-limited
    transport, _engine, broker = await start_cluster(N_PEERS, path=os.path.join(scratch, "s.sock"))
    client = None
    try:
        for key in plan.preload:
            await broker.backend.register(key)
        client = await DLPTClient.connect(transport.address)
        warm = await _issue_all(client, plan.ops[:WARMUP_OPS], in_flight)
        measured_ops = plan.ops[WARMUP_OPS:]
        ledger = Ledger()
        delivered = transport.messages_delivered
        # No collection inside the window: what the collector finalises
        # (sockets of an earlier ring, say) is not the ops' cost, and when
        # it runs depends on every allocation before.
        gc.collect()
        gc.disable()
        ledger.arm()
        try:
            measured = await _issue_all(client, measured_ops, in_flight)
        finally:
            ledger.disarm()
            gc.enable()
        delivered = transport.messages_delivered - delivered
    finally:
        if client is not None:
            await client.close()
        await broker.close()
        await transport.close()
        shutil.rmtree(scratch, ignore_errors=True)
    oracle = Oracle(plan.preload, plan.peers)
    failures = []
    for op, reply in zip(plan.ops, warm + measured):
        bad, _, _ = oracle.check(op, reply)
        if bad:
            failures.append(bad)
    record = tally(ledger, Layers(os.path.dirname(repro.__file__)), len(measured_ops))
    record.update(workload=workload, in_flight=in_flight, messages=delivered, plan_sha256=plan.sha256())
    return record, failures


def measure(streams: list, n_ops: int, n_preload: int) -> tuple:
    """``(repro-opcount/1 document, failures)`` for ``streams``, each on its
    own freshly preloaded ring."""
    from serve_workloads import N_PEERS

    doc = {
        "schema": SCHEMA,
        "python": ".".join(map(str, sys.version_info[:3])),
        "peers": N_PEERS, "preload": n_preload, "seed": SEED, "warmup": WARMUP_OPS,
        "streams": {},
    }
    failures = []
    for stream in streams:
        record, bad = asyncio.run(run_stream(stream, n_ops, n_preload))
        doc["streams"][stream] = record
        failures.extend(f"{stream}: {line}" for line in bad)
    return doc, failures


# -- the tables ------------------------------------------------------------------


def render(doc: dict, by_function: bool) -> str:
    lines = []
    for stream, rec in doc["streams"].items():
        n = rec["ops"]
        lines.append(
            f"{stream} ({rec['workload']}, {n} ops, {rec['in_flight']} in flight): "
            f"{rec['opcodes'] / n:.1f} opcodes/op, {rec['c_calls'] / n:.1f} C calls/op, "
            f"{rec['messages'] / n:.2f} messages/op, {rec['loop_turns'] / n:.2f} loop turns/op"
        )
        lines.append(f"  {'layer':<10} {'opcodes/op':>11} {'C calls/op':>11}")
        for layer, row in rec["layers"].items():
            if row["opcodes"] or row["c_calls"]:
                lines.append(f"  {layer:<10} {row['opcodes_per_op']:>11.1f} {row['c_calls_per_op']:>11.1f}")
        if by_function:
            lines.append(f"  top {TOP} of {len(rec['functions'])} functions by opcodes/op:")
            for name, row in list(rec["functions"].items())[:TOP]:
                lines.append(
                    f"  {row['opcodes'] / n:>9.1f} {row['c_calls'] / n:>7.1f}  {row['layer']:<10} {name}"
                )
    return "\n".join(lines)


def render_delta(parent: dict, change: dict) -> str:
    """Per stream and layer: opcodes/op at the parent, here, and the
    difference."""
    lines = []
    for stream, rec in change["streams"].items():
        old = parent["streams"][stream]
        lines.append(f"{stream} ({rec['workload']}): opcodes/op, parent -> this checkout")
        rows = [(layer, old["layers"][layer]["opcodes_per_op"], row["opcodes_per_op"])
                for layer, row in rec["layers"].items()]
        rows.append(("total", old["opcodes"] / old["ops"], rec["opcodes"] / rec["ops"]))
        rows.append(("C calls", old["c_calls"] / old["ops"], rec["c_calls"] / rec["ops"]))
        for name, was, now in rows:
            if was or now:
                pct = f"{100.0 * (now - was) / was:+7.1f}%" if was else "      new"
                lines.append(f"  {name:<10} {was:>9.1f} {now:>9.1f} {now - was:>+9.1f} {pct}")
    return "\n".join(lines)


# -- the pinned ledger -----------------------------------------------------------


def block_name() -> str:
    """The key of this interpreter's block in a ledger file: bytecode is
    fixed per minor version."""
    return "%d.%d" % sys.version_info[:2]


def read_block(path) -> dict:
    """This interpreter's block of the ledger file at ``path``, or ``{}``."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(block_name(), {})


def write_block(path, doc: dict) -> None:
    """Write ``doc`` as this interpreter's block of the ledger file at
    ``path``, keeping the other interpreters' blocks."""
    blocks = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            blocks = json.load(fh)
    blocks[block_name()] = doc
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(blocks.items())), fh, indent=1)
        fh.write("\n")


def drift(pinned: dict, measured: dict) -> list:
    """``(stream, layer, pinned, measured)`` opcodes for every
    :data:`SRC_LAYERS` layer of every pinned stream whose count moved."""
    moved = []
    for stream, old in pinned["streams"].items():
        new = measured["streams"][stream]["layers"]
        for layer in SRC_LAYERS:
            was, now = old["layers"][layer]["opcodes"], new[layer]["opcodes"]
            if was != now:
                moved.append((stream, layer, was, now))
    return moved


# -- the command -----------------------------------------------------------------


def _child_measure(src: pathlib.Path, streams: list, n_ops: int, n_preload: int) -> dict:
    """Measure with the ``repro`` under ``src``, in a fresh child process."""
    with tempfile.TemporaryDirectory(prefix="repro-opcount-") as scratch:
        out = os.path.join(scratch, "side.json")
        argv = [sys.executable, __file__, "--src", str(src), "--out", out,
                "--ops", str(n_ops), "--preload", str(n_preload), "--stream", *streams]
        env = dict(os.environ, PYTHONHASHSEED="0")
        done = subprocess.run(argv, env=env, cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            raise SystemExit(f"measuring {src} failed ({done.returncode}):\n{done.stdout.decode()[-2000:]}")
        return read_block(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stream", nargs="+", choices=list(STREAMS), default=list(STREAMS),
                        help="op streams to measure (default: all)")
    parser.add_argument("--ops", type=int, default=200, help="measured ops per stream (after a warm-up)")
    parser.add_argument("--preload", type=int, default=None,
                        help="keys registered before the warm-up (default: the benchmark's)")
    parser.add_argument("--by", choices=("layer", "function"), default="layer",
                        help="print the per-layer table, or the top functions too")
    parser.add_argument("--parent", type=pathlib.Path, metavar="CHECKOUT",
                        help="measure CHECKOUT's src too and print per-layer deltas")
    parser.add_argument("--out", help="write the repro-opcount/1 JSON as this interpreter's block of this file")
    parser.add_argument("--src", type=pathlib.Path, default=REPO / "src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.ops <= 0:
        parser.error("--ops must be positive")
    if args.preload is not None and args.preload < 1:
        parser.error("--preload must be positive")
    if args.parent is not None and not (args.parent / "src" / "repro").is_dir():
        parser.error(f"--parent {args.parent}: no src/repro there, not a checkout")
    sys.path[:0] = [str(args.src), str(BENCH)]
    from serve_workloads import N_PRELOAD

    n_preload = N_PRELOAD if args.preload is None else args.preload
    if args.parent is not None:
        parent = _child_measure(args.parent / "src", args.stream, args.ops, n_preload)
        doc = _child_measure(args.src, args.stream, args.ops, n_preload)
        failures = []
    else:
        doc, failures = measure(args.stream, args.ops, n_preload)
    if args.out:
        write_block(args.out, doc)
    print(render(doc, args.by == "function"))
    if args.parent is not None:
        print(render_delta(parent, doc))
    for failure in failures[:10]:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
