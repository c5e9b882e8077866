"""The end-to-end half of the ``serve`` benchmark: launch the server as a
separate process, drive it from one event loop through ``DLPTClient``,
verify every reply, and compute the calibrated end-to-end metrics.

Tracing is never on here; the per-layer ledger is ``serve_trace``.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import serve_calib as calib
from serve_workloads import N_PEERS, N_PRELOAD, WORKLOADS, Oracle, Plan, issue

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")

#: Scratch space of a run: socket files, server logs, trace JSONL.  Kept
#: at the checkout root and addressed *relative* to it, because a
#: UNIX-socket path may not exceed ~100 bytes.
TMP_ROOT = ".bench_tmp"

#: name -> (unit, direction, bound): the end-to-end contract, mirrored
#: by BENCHMARK.json (a self-test compares the two).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "lat_p50_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_op": ("ms", "lower", 0.25),
    "server_rss_mb": ("MB", "lower", 0.05),
    "wire_bytes_per_op": ("B", "lower", 0.05),
    "hops_per_lookup": ("1", "lower", 0.10),
}

PRELOAD_CHUNK = 100
SETUP_LAUNCHES = 3
WARMUP_OPS = 200
#: A run that has not finished after this multiple of ``--seconds`` stops
#: at the next segment boundary (a host running at half speed must not
#: blow the driver's time budget); the run then reports fewer ops.
DEADLINE_FACTOR = 1.3
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


# -- counting streams --------------------------------------------------------


class ByteCounter:
    """Bytes written to and read from the client sockets."""

    def __init__(self) -> None:
        self.total = 0


class CountingReader:
    """A ``StreamReader`` stand-in handed to ``DLPTClient``'s public
    constructor: one integer add per ``read``."""

    def __init__(self, reader: asyncio.StreamReader, counter: ByteCounter) -> None:
        self._reader = reader
        self._counter = counter

    async def read(self, n: int = -1) -> bytes:
        chunk = await self._reader.read(n)
        self._counter.total += len(chunk)
        return chunk


class CountingWriter:
    """The ``StreamWriter`` counterpart: one integer add per ``write``."""

    def __init__(self, writer: asyncio.StreamWriter, counter: ByteCounter) -> None:
        self._writer = writer
        self._counter = counter

    def write(self, data: bytes) -> None:
        self._counter.total += len(data)
        self._writer.write(data)

    def close(self) -> None:
        self._writer.close()

    async def wait_closed(self) -> None:
        await self._writer.wait_closed()


async def open_client(path: str, endpoint: str, counter: ByteCounter):
    """Dial the served socket, say hello, and build a ``DLPTClient`` on
    counting streams (the hello itself is not counted; the byte counter is
    read as a delta around the measured ops anyway)."""
    from repro.net.asyncio_transport import CONTROL_ENDPOINT
    from repro.net.client import DLPTClient
    from repro.net.wire import WIRE_SCHEMA, encode_frame

    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(
        encode_frame(endpoint, CONTROL_ENDPOINT, {"hello": WIRE_SCHEMA, "endpoint": endpoint})
    )
    await writer.drain()
    return DLPTClient(CountingReader(reader, counter), CountingWriter(writer, counter), endpoint)


# -- the server process ---------------------------------------------------------


_launch_ids = itertools.count(1)


class Server:
    """One ``python -m repro serve`` child: launched into a unique scratch
    directory, always reaped, and failed loudly if it misbehaved."""

    def __init__(self, peers: int = N_PEERS) -> None:
        self.dir = os.path.join(TMP_ROOT, f"{os.getpid()}-{next(_launch_ids)}")
        os.makedirs(self.dir)
        self.path = os.path.join(self.dir, "s.sock")
        self.log_path = os.path.join(self.dir, "server.log")
        self._log = open(self.log_path, "wb")
        env = dict(os.environ)
        # A fixed hash seed: no per-launch dict/set layout, one source of
        # launch-to-launch drift less.
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            # -u: the harness watches the log for "cluster up"; a block-buffered
            # stdout would hold the line back until exit.
            [sys.executable, "-u", "-m", "repro", "serve",
             "--peers", str(peers), "--path", self.path],
            stdin=subprocess.DEVNULL, stdout=self._log, stderr=subprocess.STDOUT,
            env=env, cwd=REPO_ROOT,
        )
        self.pid = self.proc.pid

    def log(self) -> str:
        with open(self.log_path, "r", errors="replace") as fh:
            return fh.read()

    async def wait_up(self, timeout: float = 60.0) -> None:
        """Block until the server printed ``cluster up``."""
        deadline = time.monotonic() + timeout
        while "cluster up" not in self.log():
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode} at startup:\n{self.log()}")
            if time.monotonic() > deadline:
                raise BenchError(f"server not up after {timeout}s:\n{self.log()}")
            await asyncio.sleep(0.005)

    def _stat(self) -> List[str]:
        with open(f"/proc/{self.pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()  # fields from "state" on

    def cpu_s(self) -> float:
        """``utime + stime`` of the server so far, in seconds."""
        fields = self._stat()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def faults_and_stime(self) -> Tuple[int, float]:
        """Minor page faults and system-mode seconds of the server so far
        (the fingerprint of allocator arena thrash, README ".pyc effect")."""
        fields = self._stat()
        return int(fields[7]), int(fields[12]) / _CLK_TCK

    def rss_hwm_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM, wait for drain and exit code 0, SIGKILL after 10 s.
        Raises :class:`BenchError` if the server's life was not clean."""
        if self._log.closed:
            return
        problem = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                problem = "server ignored SIGTERM for 10 s and was killed"
        self._log.close()
        text = self.log()
        if problem is None and self.proc.returncode != 0:
            problem = f"server exited with code {self.proc.returncode}"
        if problem is None and "Traceback" in text:
            problem = "traceback in the server's output"
        if problem is not None:
            raise BenchError(f"{problem}:\n{text[-2000:]}")
        shutil.rmtree(self.dir, ignore_errors=True)


class Session:
    """A launched server and the client connections to it."""

    def __init__(self, server: Server) -> None:
        self.server = server
        self.clients: List = []

    async def connect(self, counter: ByteCounter) -> None:
        endpoint = f"@bench-{len(self.clients)}"
        self.clients.append(await open_client(self.server.path, endpoint, counter))

    async def close(self) -> None:
        clients, self.clients = self.clients, []
        try:
            for client in clients:
                await client.close()
        finally:
            self.server.stop()


# -- set-up ------------------------------------------------------------------------


async def launch_and_preload(plan: Plan, counter: ByteCounter):
    """One cold set-up: launch -> ``cluster up`` -> preload acknowledged.

    Returns ``(session, calibrated seconds, breakdown)``.  The
    calibration unit runs before and after the launch and between
    100-key preload chunks; each piece is scaled by its own two readings.
    """
    units = [calib.calib_point()]
    marks = [time.perf_counter()]
    session = Session(Server())
    try:
        await session.server.wait_up()
        marks.append(time.perf_counter())
        units.append(calib.calib_point())
        marks.append(time.perf_counter())
        await session.connect(counter)
        client = session.clients[0]
        for i in range(0, len(plan.preload), PRELOAD_CHUNK):
            await asyncio.gather(*[client.register(k) for k in plan.preload[i:i + PRELOAD_CHUNK]])
            marks.append(time.perf_counter())
            units.append(calib.calib_point())
            marks.append(time.perf_counter())
    except BaseException:
        await session.close()
        raise
    # marks alternate: piece start, piece end (= unit start), unit end (= next piece start) ...
    pieces = [marks[i + 1] - marks[i] for i in range(0, len(marks) - 1, 2)]
    calibrated = [
        piece * calib.factor(units[i], units[i + 1]) for i, piece in enumerate(pieces)
    ]
    breakdown = {
        "launch_s": calibrated[0],
        "preload_s": sum(calibrated[1:]),
        "raw_s": sum(pieces),
    }
    return session, sum(calibrated), breakdown


# -- the load generator -----------------------------------------------------------------


async def _caller(client, ops: List[tuple], out: List[tuple]) -> None:
    """A closed loop: the next op is sent only once the reply settled."""
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            reply = await issue(client, op)
        except Exception as exc:  # an error reply is a failed op, not a crash
            reply = exc
        out.append((op, reply, clock() - t0))


async def run_segment(clients: List, callers: int, ops: List[tuple]) -> Tuple[List[tuple], float]:
    """Drive one segment; returns ``([(op, reply, latency_s)], wall_s)``.

    Ops are dealt to callers statically (op ``i`` to caller ``i mod n``,
    caller ``c`` on connection ``c mod connections``), so the bytes each
    connection carries do not depend on timing."""
    n = len(clients) * callers
    outs: List[List[tuple]] = [[] for _ in range(n)]
    t0 = time.perf_counter()
    if n == 1:
        await _caller(clients[0], ops, outs[0])
    else:
        await asyncio.gather(
            *[_caller(clients[c % len(clients)], ops[c::n], outs[c]) for c in range(n)]
        )
    wall = time.perf_counter() - t0
    merged = [item for out in outs for item in out]
    return merged, wall


class Tally:
    """Ops attempted / failed and the hop sums, fed by the oracle."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.lookups = 0
        self.hops = 0
        self.scans = 0
        self.scan_keys = 0
        self.first_failures: List[str] = []

    def verify(self, results: List[tuple]) -> None:
        for op, reply, _ in results:
            bad, lookups, hops = self.oracle.check(op, reply)
            self.attempted += 1
            self.lookups += lookups
            self.hops += hops
            if op[0] in ("complete", "range") and isinstance(reply, dict):
                self.scans += 1
                self.scan_keys += len(reply.get("keys") or ())
            if bad:
                self.failed += 1
                if len(self.first_failures) < 5:
                    self.first_failures.append(bad)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(message)


async def measure(
    ops: List[tuple], seg_ops: int, callers: int, server: Optional[Server], clients: List,
    counter: ByteCounter, tally: Tally, deadline_s: float, out=print, on_segment=None,
) -> Tuple[List[Dict[str, float]], Dict[str, float]]:
    """Run the op stream in calibrated segments; returns the per-segment
    stats and the run-level exact counters.  ``server`` is the child
    process whose CPU time is sampled (``None`` for an in-process stack);
    ``on_segment(index, active)`` brackets each timed region (the
    tracer's recording switch)."""
    segments: List[Dict[str, float]] = []
    bytes0 = counter.total
    faults0, stime0 = server.faults_and_stime() if server is not None else (0, 0.0)
    started = time.perf_counter()
    unit_before = calib.calib_point()
    done = 0
    for start in range(0, len(ops), seg_ops):
        chunk = ops[start:start + seg_ops]
        cpu0 = server.cpu_s() if server is not None else 0.0
        if on_segment is not None:
            on_segment(len(segments), True)
        t0 = time.perf_counter()
        results, wall = await run_segment(clients, callers, chunk)
        t1 = time.perf_counter()
        if on_segment is not None:
            on_segment(len(segments), False)
        cpu1 = server.cpu_s() if server is not None else 0.0
        unit_after = calib.calib_point()
        # Verification happens between segments, outside every timed region.
        tally.verify(results)
        done += len(chunk)
        latencies = [r[2] for r in results]
        seg = calib.segment_stats(latencies, wall, unit_before, unit_after)
        seg.update(wall_s=wall, cpu_s=cpu1 - cpu0, unit_ms=(unit_before + unit_after) / 2.0,
                   t0=t0, t1=t1, latencies_s=latencies)
        segments.append(seg)
        unit_before = unit_after
        if time.perf_counter() - started > deadline_s and done < len(ops):
            out(f"# deadline: stopped after {done} of {len(ops)} ops "
                f"({time.perf_counter() - started:.1f}s > {deadline_s:.1f}s)")
            break
    faults1, stime1 = server.faults_and_stime() if server is not None else (0, 0.0)
    exact = {
        "ops": done,
        "wire_bytes": counter.total - bytes0,
        "measure_wall_s": time.perf_counter() - started,
        "minflt": faults1 - faults0,
        "stime_s": stime1 - stime0,
    }
    return segments, exact


async def run_end_to_end(
    workload: str, seed: int, seconds: float, *, smoke: bool = False, out=print
) -> dict:
    """One untraced run of ``workload``; returns the result document."""
    spec = WORKLOADS[workload]
    seg_ops = spec["segment_ops"]
    if smoke:  # 2 short segments on a small tree from one launch
        seg_ops //= 4
        n_segments, n_preload, launches, warmup = 2, N_PRELOAD // 10, 1, 20
    else:
        n_segments = max(2, round(spec["ops_per_second"] * seconds / seg_ops))
        n_preload, launches, warmup = N_PRELOAD, SETUP_LAUNCHES, WARMUP_OPS
    plan = Plan(workload, seed, n_segments * seg_ops + warmup, n_preload)
    warm_ops, plan.ops = plan.ops[:warmup], plan.ops[warmup:]
    stream_hash = plan.sha256()
    out(f"# workload {workload} seed {seed}: {len(plan.ops)} ops in segments of {seg_ops}, "
        f"{len(plan.preload)} preloaded keys, op-stream sha256 {stream_hash}")

    os.makedirs(TMP_ROOT, exist_ok=True)
    counter = ByteCounter()
    oracle = Oracle(plan.preload, plan.peers)
    tally = Tally(oracle)
    setups: List[float] = []
    breakdowns: List[dict] = []
    session: Optional[Session] = None
    try:
        for _ in range(launches):
            if session is not None:  # every launch but the last is only timed
                await session.close()
            session, setup_s, breakdown = await launch_and_preload(plan, counter)
            setups.append(setup_s)
            breakdowns.append(breakdown)
        server, clients = session.server, session.clients
        while len(clients) < spec["connections"]:
            await session.connect(counter)

        # Warm-up: untimed and kept out of the hop mean, but verified
        # (register_churn's warm-up moves the oracle too).
        warm = Tally(oracle)
        results, _ = await run_segment(clients, spec["callers"], warm_ops)
        warm.verify(results)

        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            segments, exact = await asyncio.wait_for(
                measure(plan.ops, seg_ops, spec["callers"], server, clients, counter,
                        tally, seconds * DEADLINE_FACTOR, out=out),
                timeout=max(60.0, seconds * 4),
            )
        finally:
            gc.enable()
            gc.unfreeze()
        tally.attempted += warm.attempted
        tally.failed += warm.failed
        tally.first_failures += warm.first_failures
        rss_mb = server.rss_hwm_mb()
        info = await asyncio.wait_for(clients[0].info(), timeout=60.0)
        bad = oracle.final_mismatch(info)
        if bad:
            tally.fail(bad)
    except asyncio.TimeoutError:
        raise BenchError("the server stopped answering (no reply within the hard cap)")
    finally:
        if session is not None:
            await session.close()

    blocks = calib.cpu_blocks(segments)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": calib.median_over_segments(segments, "ops_per_s"),
        "lat_p50_ms": calib.median_over_segments(segments, "lat_p50_ms"),
        "cpu_ms_per_op": statistics.median(blocks),
        "server_rss_mb": rss_mb,
        "wire_bytes_per_op": exact["wire_bytes"] / exact["ops"],
        "hops_per_lookup": tally.hops / max(1, tally.lookups),
    }
    units = [seg["unit_ms"] for seg in segments]
    diagnostics = {
        # Printed, never gated: over ten seeds it spread by up to 13%
        # (inter-quartile) on lookup_fanin, too wide for any bound <= 25%.
        "lat_p95_ms": calib.median_over_segments(segments, "lat_p95_ms"),
        "raw.ops_per_s": calib.median_over_segments(segments, "raw.ops_per_s"),
        "raw.lat_p50_ms": calib.median_over_segments(segments, "raw.lat_p50_ms"),
        "raw.lat_p95_ms": calib.median_over_segments(segments, "raw.lat_p95_ms"),
        "raw.lat_p99_ms": calib.median_over_segments(segments, "raw.lat_p99_ms"),
        "raw.setup_s": statistics.median(b["raw_s"] for b in breakdowns),
        "calib.unit_ms_p50": statistics.median(units),
        "calib.unit_ms_iqr_pct": calib.spread_pct(units),
        "measure_wall_s": exact["measure_wall_s"],
        "server.minflt_per_op": exact["minflt"] / exact["ops"],
        "server.stime_ms_per_op": exact["stime_s"] * 1e3 / exact["ops"],
    }
    return {
        "workload": workload,
        "seed": seed,
        "sha256": stream_hash,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.first_failures,
        "segments": len(segments),
        "segment_ops": seg_ops,
        "cpu_blocks": len(blocks),
        "p95_samples_beyond": calib.samples_beyond(seg_ops, 95),
        "p99_samples_beyond": calib.samples_beyond(seg_ops, 99),
        "metrics": metrics,
        "diagnostics": diagnostics,
    }
