"""``python -m repro serve``: cluster launcher and the --demo self-check."""

from __future__ import annotations

import asyncio

import pytest

from repro.__main__ import main as repro_main
from repro.dlpt.protocol import ProtocolEngine
from repro.net.bootstrap import RegistryJournal
from repro.net.serve import (
    DEMO_KEYS,
    build_parser,
    peer_ids,
    run_demo,
    serve,
    start_cluster,
    start_multiprocess_cluster,
)

pytestmark = pytest.mark.asyncio


class TestPeerIds:
    def test_deterministic_unique_sorted(self):
        ids = peer_ids(8)
        assert ids == peer_ids(8)
        assert len(ids) == 8 == len(set(ids))
        assert ids == sorted(ids)

    @pytest.mark.parametrize("n", [1, 2, 26, 100])
    def test_scales_without_collisions(self, n):
        assert len(peer_ids(n)) == n


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.peers == 8 and not args.tcp and not args.demo
        assert args.processes == 1 and args.journal is None
        assert args.chaos is None and not args.supervise

    def test_cli_rejects_empty_cluster(self):
        assert repro_main(["serve", "--peers", "0"]) == 2

    def test_cli_rejects_zero_processes(self):
        assert repro_main(["serve", "--processes", "0"]) == 2

    def test_cli_rejects_malformed_chaos_spec(self):
        """A bad --chaos spec fails at argument time (exit 2), before any
        socket is bound."""
        assert repro_main(["serve", "--chaos", "bogus:1"]) == 2
        assert repro_main(["serve", "--chaos", "drop:1.5"]) == 2

    @pytest.mark.net
    def test_supervise_without_processes_warns_and_is_ignored(self, tmp_path):
        args = build_parser().parse_args(
            ["--peers", "2", "--supervise", "--demo",
             "--path", str(tmp_path / "s.sock")]
        )
        lines = []
        rc = asyncio.run(serve(args, out=lines.append))
        assert rc == 0
        assert any("--supervise needs --processes" in line for line in lines)


class TestBindFailure:
    """The bugfix: bind failures exit non-zero with a one-line error."""

    def test_stale_unix_socket_exits_one_with_hint(self, tmp_path):
        stale = tmp_path / "stale.sock"
        stale.touch()
        args = build_parser().parse_args(["--peers", "2", "--path", str(stale)])
        lines = []
        rc = asyncio.run(serve(args, out=lines.append))
        assert rc == 1
        assert len(lines) == 1 and "cannot bind" in lines[0]
        assert "stale socket" in lines[0]

    def test_unwritable_path_exits_one(self, tmp_path):
        args = build_parser().parse_args(
            ["--peers", "2", "--path", str(tmp_path / "no-such-dir" / "x.sock")]
        )
        lines = []
        rc = asyncio.run(serve(args, out=lines.append))
        assert rc == 1 and "cannot bind" in lines[0]

    @pytest.mark.net
    def test_tcp_port_in_use_exits_one(self):
        import socket

        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        port = holder.getsockname()[1]
        try:
            args = build_parser().parse_args(
                ["--peers", "2", "--tcp", "--port", str(port)]
            )
            lines = []
            rc = asyncio.run(serve(args, out=lines.append))
            assert rc == 1 and "cannot bind" in lines[0]
        finally:
            holder.close()


class TestCorruptJournal:
    """A malformed ``--journal`` fails before the bind (exit 2, one line);
    it used to die with a traceback *after* binding and leave the socket
    file behind, so the next start hit "stale socket"."""

    def test_cli_exits_two_before_binding(self, tmp_path, capsys):
        journal, sock = tmp_path / "j.jsonl", tmp_path / "s.sock"
        journal.write_text("not json\n")
        rc = repro_main(
            ["serve", "--peers", "2", "--path", str(sock), "--journal", str(journal)]
        )
        assert rc == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {journal}:1: not JSON")
        assert not sock.exists()

    @pytest.mark.parametrize(
        "record, needle",
        [
            ("[1, 2]", "not a JSON object"),
            ('{"v": "repro-registry/1", "op": "join", "capacity": 3}', "'peer'"),
            ('{"v": "repro-registry/1", "op": "join", "peer": "pa", "capacity": 0}', "'capacity'"),
            ('{"v": "repro-registry/1", "op": "join", "peer": "pa", "capacity": true}', "'capacity'"),
        ],
    )
    def test_a_record_the_broker_would_refuse_exits_two(self, tmp_path, capsys, record, needle):
        """The journal admits members by the broker's own rule.  A list
        record used to die with ``AttributeError`` (exit 1, a traceback),
        a peer-less join admitted ``"None"``, and capacities 0 and
        ``true`` were taken (the latter as 1)."""
        journal, sock = tmp_path / "j.jsonl", tmp_path / "s.sock"
        journal.write_text('{"v": "repro-registry/1", "op": "join", "peer": "pb"}\n' + record + "\n")
        rc = repro_main(
            ["serve", "--demo", "--path", str(sock), "--journal", str(journal)]
        )
        assert rc == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {journal}:2: ") and needle in lines[0]
        assert not sock.exists()

    def test_capacity_zero_exits_two_like_peers_zero(self, tmp_path, capsys):
        """``--capacity 0 --demo`` used to serve a ring of capacity-0 peers
        that the broker's own ``peer_join`` refuses."""
        sock = tmp_path / "s.sock"
        rc = repro_main(["serve", "--capacity", "0", "--demo", "--path", str(sock)])
        assert rc == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "capacity" in lines[0]
        assert not sock.exists()

    def test_a_broken_ring_is_not_served(self, tmp_path, monkeypatch):
        """``start_cluster`` checks the admitted ring before it serves it;
        a failed check closes what bring-up opened."""

        def broken(engine):
            raise AssertionError("ring broken at bring-up")

        monkeypatch.setattr(ProtocolEngine, "check_ring", broken)
        sock = tmp_path / "s.sock"
        with pytest.raises(AssertionError, match="ring broken"):
            asyncio.run(start_cluster(3, path=str(sock)))
        assert not sock.exists()

    @pytest.mark.net
    @pytest.mark.parametrize("start", [start_cluster, start_multiprocess_cluster])
    def test_failed_admission_closes_what_bring_up_opened(self, tmp_path, start):
        journal, sock = tmp_path / "j.jsonl", tmp_path / "s.sock"
        journal.write_text("not json\n")
        kwargs = {"processes": 2} if start is start_multiprocess_cluster else {}
        with pytest.raises(ValueError, match="not JSON"):
            asyncio.run(
                start(2, path=str(sock), journal=RegistryJournal(str(journal)), **kwargs)
            )
        assert not sock.exists()


@pytest.mark.net
class TestSocketLifecycle:
    def test_clean_shutdown_unlinks_user_supplied_socket(self, tmp_path):
        path = tmp_path / "dlpt.sock"

        async def body():
            transport, engine, broker = await start_cluster(2, path=str(path))
            assert path.exists()
            await broker.close()
            await transport.close()

        asyncio.run(body())
        assert not path.exists()


@pytest.mark.net
class TestJournalRecovery:
    def test_restart_readmits_journaled_membership(self, tmp_path):
        journal_path = str(tmp_path / "registry.jsonl")

        async def run_once(n_peers):
            journal = RegistryJournal(journal_path)
            transport, engine, broker = await start_cluster(
                n_peers, journal=journal
            )
            try:
                return sorted(engine.peers)
            finally:
                await broker.close()
                await transport.close()

        first = asyncio.run(run_once(4))
        assert first == peer_ids(4)
        # Restart asking for a different size: the journal wins.
        second = asyncio.run(run_once(9))
        assert second == first
        # Idempotent recovery: re-admission did not grow the journal.
        assert len(RegistryJournal(journal_path).replay()) == 4

    def test_restart_after_crash_readmits_the_adopted_membership(self, tmp_path):
        """Journal hardening: a supervisor-journaled ``crash`` event
        subtracts the dead worker's peers, so a restart re-admits the
        post-adoption ring — never a ghost of the crashed peer."""
        journal_path = str(tmp_path / "registry.jsonl")
        journal = RegistryJournal(journal_path)
        for pid in ("pa", "pd", "pg", "pj"):
            journal.record("join", pid, 10)
        journal.record("crash", "pd")
        journal.close()

        async def restart():
            restart_journal = RegistryJournal(journal_path)
            transport, engine, broker = await start_cluster(
                8, journal=restart_journal
            )
            try:
                return sorted(engine.peers)
            finally:
                await broker.close()
                await transport.close()

        assert asyncio.run(restart()) == ["pa", "pg", "pj"]


@pytest.mark.net
class TestDemo:
    def _demo(self, **kwargs):
        async def body():
            transport, engine, broker = await start_cluster(8, **kwargs)
            try:
                lines = []
                summary = await run_demo(transport.address, out=lines.append)
                return engine, summary, lines
            finally:
                await broker.close()
                await transport.close()

        return asyncio.run(body())

    def test_demo_over_unix_socket(self):
        engine, summary, lines = self._demo()
        assert summary["registered"] == len(DEMO_KEYS)
        assert summary["found"] == len(DEMO_KEYS)
        assert summary["missed"] == 1
        assert summary["info"]["peers"] == 8
        # Every demo key landed on the peer the mapping rule names: the
        # lowest peer id >= the key (wrapped) — the paper's Def. 3 rule.
        ids = sorted(engine.peers)
        for key in DEMO_KEYS:
            expected = next((p for p in ids if p >= key), ids[0])
            assert engine.locator[key] == expected
        assert any("registered" in line for line in lines)

    def test_demo_over_tcp(self):
        engine, summary, lines = self._demo(tcp=True)
        assert summary["found"] == len(DEMO_KEYS) and summary["missed"] == 1

    def test_serve_demo_cli_exit_code(self):
        """The acceptance command itself: python -m repro serve --demo."""
        assert repro_main(["serve", "--peers", "8", "--demo"]) == 0


@pytest.mark.net
class TestMultiProcessServe:
    """``--processes N``: the same client-visible surface, served by a
    ring spread over worker processes."""

    def test_demo_over_two_processes(self):
        async def body():
            transport, cluster, broker = await start_multiprocess_cluster(
                6, processes=2
            )
            try:
                lines = []
                summary = await run_demo(transport.address, out=lines.append)
                assert summary["registered"] == len(DEMO_KEYS)
                assert summary["found"] == len(DEMO_KEYS)
                assert summary["missed"] == 1
                assert summary["info"]["peers"] == 6
                assert len(cluster.members) == 6
            finally:
                await broker.close()
                await transport.close()
                await cluster.close()

        asyncio.run(body())

    def test_serve_demo_cli_two_processes(self):
        assert (
            repro_main(
                ["serve", "--peers", "6", "--processes", "2", "--demo"]
            )
            == 0
        )


@pytest.mark.net
class TestChaosServing:
    """``--chaos`` / ``--supervise``: serving stays correct under
    outcome-preserving fault injection."""

    _PRESERVING = "delay:0.3:max=0.002+reorder:0.2+seed=5"

    def test_demo_survives_preserving_chaos_single_process(self):
        async def body():
            transport, engine, broker = await start_cluster(
                8, chaos=self._PRESERVING
            )
            try:
                summary = await run_demo(transport.address, out=lambda _: None)
                assert summary["found"] == len(DEMO_KEYS)
                assert summary["missed"] == 1
                # Chaos actually fired on the serving path...
                assert transport.chaos_delayed + transport.chaos_reordered > 0
                # ...and the wrapper's ledger still balances.
                await transport.drain()
                assert transport.messages_sent == (
                    transport.messages_delivered
                    + transport.messages_dropped
                    + transport.messages_dead_lettered
                )
            finally:
                await broker.close()
                await transport.close()

        asyncio.run(body())

    def test_serve_demo_cli_chaotic_supervised_two_processes(self):
        assert (
            repro_main(
                [
                    "serve", "--peers", "6", "--processes", "2",
                    "--chaos", self._PRESERVING, "--supervise", "--demo",
                ]
            )
            == 0
        )
