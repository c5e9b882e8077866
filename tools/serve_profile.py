"""Where the served process spends its CPU: a SIGPROF sample of ``python -m repro serve``.

    python3 tools/serve_profile.py --workload W [--ops N]

Launches ``python -m repro serve --peers 128`` as a child that runs under a
stdlib sampler — ``signal.setitimer(ITIMER_PROF)``, so samples are spaced by
the child's own CPU time (``INTERVAL_S``, which the kernel rounds up to its
timer tick) and none is taken while it waits — drives it
with the serve benchmark's op stream (``Plan`` / ``issue`` / ``Oracle`` of
``benchmarks/serve``, imported read-only: same keys, same ops, same
connections and callers as ``benchmarks/serve/run.py --workload W --seed 1``),
verifies every reply, and prints two tables over the child's Python stacks:
*inclusive* (share of samples with the function anywhere on the stack) and
*leaf* (share with it on top; C code — ``socket.send``, ``json`` — bills its
Python caller).  The driver arms the sampler with ``SIGUSR1`` after the preload
and the warm-up and disarms it with a second one after the last measured reply,
so bring-up and shutdown are not in the sample.  While armed the child also
counts its event loop's iterations and its minor page faults, printed per
measured op beside the CPU ms/op: how many times the loop went round for one
request, and how often it touched memory the kernel had to map afresh.  The
headline ends with the child's footprint, read from ``/proc/self/status``
when the sampler disarms: its peak resident set (``VmHWM``) and OS threads.

Sample, do not ``cProfile``, this path: per-call instrumentation inflates a
run of many tiny calls 2.5x and mis-ranks it (it blamed ``socket.send`` for
what the constructors of the message records cost).  Exit status 1 when a
reply was wrong or the child's life was not clean.
"""
import argparse
import asyncio
import collections
import json
import os
import pathlib
import resource
import runpy
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

PRELOAD_CHUNK = 100
WARMUP_OPS = 200
# Fixed, so that two issues quote comparable samples; an option comes back
# when a second caller needs a different value.
SEED = 1
TOP = 25  # rows per table
INTERVAL_S = 0.001  # child CPU time between two samples


# -- the child: ``python -m repro serve`` under the sampler ------------------------


class LoopTurns:
    """Counts event-loop iterations (``BaseEventLoop._run_once`` calls)
    between :meth:`arm` and :meth:`disarm`; disarmed, the loop runs its
    own method untouched."""

    def __init__(self) -> None:
        self.count = 0
        self._run_once = asyncio.base_events.BaseEventLoop._run_once

    def arm(self) -> None:
        run_once = self._run_once

        def counted(loop):
            self.count += 1
            run_once(loop)

        asyncio.base_events.BaseEventLoop._run_once = counted

    def disarm(self) -> None:
        asyncio.base_events.BaseEventLoop._run_once = self._run_once


class ArmedUsage:
    """This process's CPU seconds and minor page faults between
    :meth:`arm` and :meth:`disarm`, summed over every arming, and its
    footprint at the last disarm: peak resident set (``VmHWM``, kB) and
    OS threads, read from ``/proc/self/status``."""

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.minflt = 0
        self.vmhwm_kb = 0
        self.threads = 0
        self.at = None  # (CPU seconds, minor faults) when armed; None disarmed

    def arm(self) -> None:
        self.at = (time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    def disarm(self) -> None:
        cpu_s, minflt = self.at
        self.cpu_s += time.process_time() - cpu_s
        self.minflt += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
        self.at = None
        with open("/proc/self/status", encoding="ascii") as fh:
            status = dict(line.split(":", 1) for line in fh)
        self.vmhwm_kb = int(status["VmHWM"].split()[0])
        self.threads = int(status["Threads"])


def serve_under_sampler(out_path: str, serve_argv: list) -> int:
    """Run ``python -m repro serve_argv…`` in this process; ``SIGUSR1``
    toggles an ``ITIMER_PROF`` whose every tick records the Python stack,
    a :class:`LoopTurns` and an :class:`ArmedUsage`.  On exit ``out_path``
    gets ``{"cpu_s": CPU seconds spent armed, "minflt": minor page faults
    while armed, "turns": loop iterations while armed, "vmhwm_kb": peak
    RSS at the last disarm, "threads": OS threads then, "samples": [[stack,
    count], …]}`` (``stack`` innermost first, frames ``[file, line,
    name]``)."""
    samples = collections.Counter()
    usage = ArmedUsage()
    turns = LoopTurns()

    def on_tick(signum, frame):
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append((code.co_filename, code.co_firstlineno, code.co_name))
            frame = frame.f_back
        samples[tuple(stack)] += 1

    def on_toggle(signum, frame):
        if usage.at is None:
            usage.arm()
            turns.arm()
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        else:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            turns.disarm()
            usage.disarm()

    signal.signal(signal.SIGPROF, on_tick)
    signal.signal(signal.SIGUSR1, on_toggle)
    sys.argv = ["repro", *serve_argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code or 0
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"cpu_s": usage.cpu_s, "minflt": usage.minflt, "turns": turns.count,
                 "vmhwm_kb": usage.vmhwm_kb, "threads": usage.threads,
                 "samples": [[s, n] for s, n in samples.items()]},
                fh,
            )
    return 0


# -- the tables --------------------------------------------------------------------------


def _where(frame) -> str:
    filename, line, name = frame
    try:
        filename = str(pathlib.Path(filename).relative_to(SRC))
    except ValueError:
        filename = "/".join(pathlib.Path(filename).parts[-2:])
    return f"{filename}:{line} {name}"


def tables(samples: list) -> tuple:
    """``(total, inclusive, leaf)``: sample counts per function, the
    function anywhere on the stack (once per sample) and on top of it.
    The outer frames every sample shares (``main``, ``asyncio.run``, the
    loop) are left out of ``inclusive``: they are 100% by construction."""
    stacks = [([tuple(frame) for frame in stack], count) for stack, count in samples]
    shared = 0
    while stacks and all(
        len(s) > shared + 1 and s[-1 - shared] == stacks[0][0][-1 - shared] for s, _ in stacks
    ):
        shared += 1
    inclusive, leaf = collections.Counter(), collections.Counter()
    for frames, count in stacks:
        leaf[frames[0]] += count
        for frame in set(frames[: len(frames) - shared]):
            inclusive[frame] += count
    return sum(count for _, count in stacks), inclusive, leaf


def headline(workload: str, done: int, wall: float, tally, total: int, doc: dict) -> str:
    """The run's one-line summary: ops, replies verified, samples, per
    measured op the child's CPU ms, its event loop's turns and its minor
    page faults, and the child's footprint (peak RSS, OS threads)."""
    per_op = max(1, done)
    return (f"{workload} seed {SEED}: {done} measured ops in {wall:.2f}s, "
            f"{tally.attempted} verified, {tally.failed} failed; "
            f"{total} samples over {doc['cpu_s']:.2f}s of child CPU "
            f"({doc['cpu_s'] * 1e3 / per_op:.3f} ms/op, "
            f"{doc['turns'] / per_op:.2f} loop turns/op, "
            f"{doc['minflt'] / per_op:.2f} minor faults/op); "
            f"child peak RSS {doc['vmhwm_kb'] / 1024:.1f} MB, {doc['threads']} OS threads")


def render(title: str, counts: collections.Counter, total: int, top: int) -> str:
    lines = [f"{title} (top {top} of {len(counts)} functions, {total} samples)"]
    for frame, count in counts.most_common(top):
        lines.append(f"  {100.0 * count / total:6.2f}%  {count:7d}  {_where(frame)}")
    return "\n".join(lines)


# -- the driver --------------------------------------------------------------------------


async def _wait_up(proc: subprocess.Popen, log_path: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        with open(log_path, "r", errors="replace") as fh:
            text = fh.read()
        if "cluster up" in text:
            return
        if proc.poll() is not None or time.monotonic() > deadline:
            raise SystemExit(f"the served child did not come up:\n{text}")
        await asyncio.sleep(0.01)


async def _toggle_sampler(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGUSR1)
    await asyncio.sleep(0.05)  # the child handles it at its next bytecode


async def drive(proc, log_path, sock_path, workload: str, n_ops: int) -> tuple:
    """Preload, warm up, then the measured ops between two ``SIGUSR1``;
    returns ``(tally, measured ops, wall seconds)``."""
    import serve_harness as harness
    from serve_workloads import WORKLOADS, Oracle, Plan

    spec = WORKLOADS[workload]
    plan = Plan(workload, SEED, n_ops + WARMUP_OPS)
    oracle = Oracle(plan.preload, plan.peers)
    tally = harness.Tally(oracle)
    await _wait_up(proc, log_path)
    counter = harness.ByteCounter()
    clients = [
        await harness.open_client(sock_path, f"@profile-{i}", counter)
        for i in range(spec["connections"])
    ]
    try:
        for i in range(0, len(plan.preload), PRELOAD_CHUNK):
            await asyncio.gather(*[clients[0].register(k) for k in plan.preload[i:i + PRELOAD_CHUNK]])
        warm, _ = await harness.run_segment(clients, spec["callers"], plan.ops[:WARMUP_OPS])
        tally.verify(warm)
        await _toggle_sampler(proc)
        measured, wall = await harness.run_segment(clients, spec["callers"], plan.ops[WARMUP_OPS:])
        await _toggle_sampler(proc)
        tally.verify(measured)
        bad = oracle.final_mismatch(await asyncio.wait_for(clients[0].info(), timeout=60.0))
        if bad:
            tally.fail(bad)
    finally:
        for client in clients:
            await client.close()
    return tally, len(measured), wall


def profile(workload: str, n_ops: int) -> int:
    from serve_workloads import N_PEERS

    scratch = tempfile.mkdtemp(prefix="repro-profile-")  # short: UNIX-socket paths are length-limited
    sock_path, log_path = os.path.join(scratch, "s.sock"), os.path.join(scratch, "server.log")
    samples_path = os.path.join(scratch, "samples.json")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-u", __file__, "--child", samples_path,
             "serve", "--peers", str(N_PEERS), "--path", sock_path],
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=REPO,
        )
    try:
        try:
            tally, done, wall = asyncio.run(drive(proc, log_path, sock_path, workload, n_ops))
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        with open(log_path, "r", errors="replace") as fh:
            log_text = fh.read()
        clean = proc.returncode == 0 and "Traceback" not in log_text
        if not clean:
            print(f"the served child exited {proc.returncode}:\n{log_text[-2000:]}", file=sys.stderr)
        with open(samples_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        total, inclusive, leaf = tables(doc["samples"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(headline(workload, done, wall, tally, total, doc))
    for failure in tally.first_failures:
        print(f"FAILED: {failure}")
    if total:
        print(render("inclusive", inclusive, total, TOP))
        print(render("leaf", leaf, total, TOP))
    return 0 if clean and tally.failed == 0 and total else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload of benchmarks/serve (BENCHMARK.json)")
    parser.add_argument("--ops", type=int, default=2000, help="measured ops (after a 200-op warm-up)")
    parser.add_argument("--child", metavar="SAMPLES_JSON", help=argparse.SUPPRESS)
    parser.add_argument("serve_argv", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.ops <= 0:
        parser.error("--ops must be positive")
    if args.child:
        return serve_under_sampler(args.child, args.serve_argv)
    sys.path[:0] = [str(SRC), str(REPO / "benchmarks" / "serve")]
    from serve_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return profile(args.workload, args.ops)


if __name__ == "__main__":
    sys.exit(main())
