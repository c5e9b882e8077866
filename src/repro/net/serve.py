"""``python -m repro serve`` — launch a local DLPT cluster over sockets.

Single-process mode (the default) brings up one
:class:`~repro.net.asyncio_transport.AsyncioTransport` (Unix-domain
socket by default, ``--tcp`` for TCP), a
:class:`~repro.dlpt.protocol.ProtocolEngine` hosting ``--peers`` peers
bootstrapped through the registry (each join is one seeded
``NewPredecessor``), and the :class:`~repro.net.bootstrap.Broker` RPC
endpoint; then serves until SIGTERM/SIGINT, draining in-flight protocol
traffic before shutdown.

``--processes N`` (N >= 2) instead spreads the ring over N engine-group
worker processes (:class:`~repro.net.procgroup.MultiProcessCluster`:
the same transport class per group, with a resolver so cross-group
messages travel over dialed links) and serves clients through the same
:class:`~repro.net.bootstrap.Broker` over that backend — one ``"@broker"``
wire contract, so :class:`~repro.net.client.DLPTClient` cannot tell the
topologies apart.

``--journal PATH`` persists membership as ``repro-registry/1`` JSONL;
on startup a non-empty journal is replayed and the recovered peers are
re-admitted in place of the default topology — the restart-recovery half
of the bootstrap registry.  A corrupt journal exits 2 with a one-line
``path:lineno: …`` error before any socket is bound.

``--demo`` connects a client to the listener, registers a few service
keys, discovers them (plus one deliberate miss) over the real socket,
prints the results and exits — the self-check of the acceptance
criteria.  Bind failures (port in use, stale socket path) exit non-zero
with a one-line error instead of a traceback; the listening socket file
is unlinked on clean shutdown and when bring-up fails after the bind.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
from typing import List, Optional

from ..dlpt.protocol import ProtocolEngine
from ..util.specs import SpecError, parse_spec
from .asyncio_transport import AsyncioTransport
from .bootstrap import Broker, RegistryJournal, checked_member
from .chaos import ChaosTransport
from .client import DLPTClient
from .cluster import LocalCluster
from .procgroup import MultiProcessCluster

#: Keys the demo registers and then discovers over the socket.
DEMO_KEYS = (
    "dgemm",
    "dgemv",
    "dtrsm",
    "pdgemm",
    "sgemm",
)


def peer_ids(n: int) -> List[str]:
    """Deterministic, evenly spread lowercase peer ids (``pa``, ``pb``…)."""
    digits = "abcdefghijklmnopqrstuvwxyz"
    ids = []
    for i in range(n):
        label, x = "", i
        for _ in range(max(1, (n - 1).bit_length() // 4 + 2)):
            label += digits[x % 26]
            x //= 26
        ids.append("p" + label)
    return sorted(set(ids))


async def _admit_members(backend, n_peers: int, capacity: int, journal, chaos) -> None:
    """The bring-up both topologies share: admit the initial topology —
    the journal's recovered membership when non-empty, else the default
    ``peer_ids`` spread — through ``backend.join``, journaling fresh
    topologies (recovered ones are already on disk), with fault injection
    held off until the ring is up: chaos perturbs serving, not bring-up."""
    members = journal.replay() if journal is not None else {}
    recovered = bool(members)
    if not recovered:
        members = {pid: capacity for pid in peer_ids(n_peers)}
    if chaos is not None:
        await backend.set_chaos(False)
    for pid in sorted(members):
        await backend.join(pid, members[pid])
        if journal is not None and not recovered:
            journal.record("join", pid, members[pid])
    if chaos is not None:
        await backend.set_chaos(True)


async def start_cluster(
    n_peers: int,
    *,
    tcp: bool = False,
    host: str = "127.0.0.1",
    port: int = 0,
    path: Optional[str] = None,
    capacity: int = 10,
    inbox_limit: Optional[int] = None,
    journal: Optional[RegistryJournal] = None,
    chaos=None,
):
    """Bring up transport + engine + broker + ``n_peers`` peers; returns
    ``(transport, engine, broker)`` ready to serve.  ``inbox_limit`` /
    ``journal`` configure the broker's backpressure and persistence
    (:mod:`repro.net.bootstrap`); a non-empty journal is replayed and its
    membership re-admitted instead of the default.
    ``chaos`` (a plan/spec per :mod:`repro.net.chaos`) wraps the transport
    in a :class:`~repro.net.chaos.ChaosTransport`, enabled only once the
    initial topology is up."""
    transport = AsyncioTransport(
        host=host if tcp else None, port=port, path=None if tcp else path
    )
    if chaos is not None:
        transport = ChaosTransport(transport, chaos)
    # Whatever is opened here is closed again if admission raises: a
    # failed bring-up must not leave a bound socket file behind.
    async with contextlib.AsyncExitStack() as opened:
        await transport.start()
        opened.push_async_callback(transport.close)
        engine = ProtocolEngine(transport=transport)
        broker = Broker(
            LocalCluster(engine),
            transport,
            inbox_limit=inbox_limit,
            journal=journal,
        )
        await broker.start()
        opened.push_async_callback(broker.close)
        await _admit_members(broker.backend, n_peers, capacity, journal, chaos)
        engine.check_ring()
        opened.pop_all()
    return transport, engine, broker


async def start_multiprocess_cluster(
    n_peers: int,
    *,
    processes: int,
    tcp: bool = False,
    host: str = "127.0.0.1",
    port: int = 0,
    path: Optional[str] = None,
    capacity: int = 10,
    inbox_limit: Optional[int] = None,
    journal: Optional[RegistryJournal] = None,
    chaos=None,
    supervise: bool = False,
):
    """Bring up ``processes`` engine-group workers, a client-facing
    listener and the broker over them; returns ``(transport, cluster,
    broker)`` ready to serve.  ``chaos`` injects the given fault plan into
    every worker transport (enabled once the topology is up);
    ``supervise`` starts the coordinator's heartbeat/restart supervisor
    (:meth:`MultiProcessCluster._supervise`)."""
    cluster = MultiProcessCluster(
        processes=processes, chaos=chaos, supervise=supervise, journal=journal
    )
    transport = AsyncioTransport(
        host=host if tcp else None, port=port, path=None if tcp else path
    )
    async with contextlib.AsyncExitStack() as opened:  # as in start_cluster
        # Registered first: a start that fails part-way (a worker dying
        # before it reports its address) leaves workers to stop.
        opened.push_async_callback(cluster.close)
        await cluster.start()
        await transport.start()
        opened.push_async_callback(transport.close)
        broker = Broker(
            cluster,
            transport,
            inbox_limit=inbox_limit,
            journal=journal,
        )
        await broker.start()
        opened.push_async_callback(broker.close)
        await _admit_members(cluster, n_peers, capacity, journal, chaos)
        opened.pop_all()
    return transport, cluster, broker


async def run_demo(address, out=print) -> dict:
    """Register and discover :data:`DEMO_KEYS` through a real socket."""
    client = await DLPTClient.connect(address)
    try:
        registered = await asyncio.gather(*[client.register(k) for k in DEMO_KEYS])
        for record in registered:
            out(f"  registered {record['key']!r} on peer {record['host']!r}")
        results = await client.discover_batch(list(DEMO_KEYS))
        for row in results:
            out(
                f"  discover {row['key']!r}: found={row['found']} "
                f"host={row['host']!r} hops={row['hops']}"
            )
        miss = await client.discover("no-such-service")
        out(f"  discover 'no-such-service': found={miss['found']}")
        info = await client.info()
        out(f"  cluster: {info['peers']} peers, {info['nodes']} nodes")
        return {
            "registered": len(registered),
            "found": sum(1 for r in results if r["found"]),
            "missed": 0 if miss["found"] else 1,
            "info": info,
        }
    finally:
        await client.close()


async def wait_for_shutdown() -> None:
    """Block until SIGTERM or SIGINT (KeyboardInterrupt where the loop
    cannot install signal handlers)."""
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    try:
        with contextlib.suppress(asyncio.CancelledError, KeyboardInterrupt):
            await stop.wait()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


def _bind_target(args) -> str:
    if args.tcp:
        return f"{args.host}:{args.port}"
    return args.path if args.path else "a temp-dir unix socket"


async def serve(args, out=print) -> int:
    multiprocess = args.processes > 1
    journal = RegistryJournal(args.journal) if args.journal else None
    if journal is not None:
        # A corrupt journal fails here, before any socket exists.
        try:
            journal.replay()
        except ValueError as exc:
            out(f"error: {exc}")
            return 2
    chaos = parse_spec("chaos", args.chaos) if getattr(args, "chaos", None) else None
    supervise = bool(getattr(args, "supervise", False))
    if supervise and not multiprocess:
        out("warning: --supervise needs --processes >= 2; ignoring")
        supervise = False
    kwargs = dict(
        tcp=args.tcp,
        host=args.host,
        port=args.port,
        path=args.path,
        capacity=args.capacity,
        journal=journal,
        chaos=chaos,
    )
    start = start_cluster
    if multiprocess:
        start = start_multiprocess_cluster
        kwargs.update(processes=args.processes, supervise=supervise)
    try:
        transport, _, broker = await start(args.peers, **kwargs)
    except OSError as exc:
        message = f"error: cannot bind {_bind_target(args)}: {exc}"
        if not args.tcp and args.path and os.path.exists(args.path):
            message += " (stale socket from an unclean shutdown? remove it and retry)"
        out(message)
        if journal is not None:
            journal.close()
        return 1
    backend = broker.backend
    try:
        topology = f"{len(backend.live_ids())} peers" + (
            f" across {args.processes} processes" if multiprocess else ""
        )
        out(f"cluster up: {topology}, listening on {transport.address}")
        if args.demo:
            summary = await run_demo(transport.address, out=out)
            ok = (
                summary["registered"] == len(DEMO_KEYS)
                and summary["found"] == len(DEMO_KEYS)
                and summary["missed"] == 1
            )
            out("demo " + ("passed" if ok else "FAILED"))
            return 0 if ok else 1
        out("serving until SIGTERM (drains in-flight traffic on shutdown)")
        await wait_for_shutdown()
        out("shutdown: draining")
        await backend.drain()
        return 0
    finally:
        await broker.close()
        await transport.close()
        await backend.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Launch a local N-peer DLPT cluster behind a socket.",
    )
    parser.add_argument("--peers", type=int, default=8,
                        help="cluster size (default 8)")
    parser.add_argument("--capacity", type=int, default=10,
                        help="per-peer capacity (default 10)")
    parser.add_argument("--processes", type=int, default=1,
                        help="spread the ring over N engine-group worker "
                        "processes (default 1: single in-process engine)")
    parser.add_argument("--tcp", action="store_true",
                        help="listen on TCP instead of a Unix-domain socket")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP bind port (default: ephemeral)")
    parser.add_argument("--path", default=None,
                        help="Unix-domain socket path (default: a temp dir)")
    parser.add_argument("--journal", default=None,
                        help="registry journal path (repro-registry/1 JSONL); "
                        "a non-empty journal is replayed on startup and its "
                        "membership re-admitted")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="inject seeded faults into the serving "
                        "transport(s); SPEC per the chaos grammar, e.g. "
                        "'drop:0.05+delay:0.3:max=0.01:seed=7'")
    parser.add_argument("--supervise", action="store_true",
                        help="run the worker supervisor (heartbeats, "
                        "crash detection, restart + successor adoption); "
                        "needs --processes >= 2")
    parser.add_argument("--demo", action="store_true",
                        help="register+discover demo keys via a socket "
                        "client, then exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.peers < 1:
        print("error: --peers must be >= 1")
        return 2
    try:  # the rule every admitted member meets, the default topology's too
        checked_member(peer_ids(1)[0], args.capacity)
    except ValueError as exc:
        print(f"error: --capacity: {exc}")
        return 2
    if args.processes < 1:
        print("error: --processes must be >= 1")
        return 2
    if args.chaos:
        try:
            parse_spec("chaos", args.chaos)
        except SpecError as exc:
            print(f"error: {exc}")
            return 2
    try:
        return asyncio.run(serve(args))
    except KeyboardInterrupt:
        return 0
