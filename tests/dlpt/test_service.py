"""DiscoveryService facade: registration, search modes, multi-attribute."""

from __future__ import annotations

import pytest

from repro.core.queries import ExactQuery, MultiAttributeQuery, PrefixQuery, RangeQuery
from repro.dlpt.failures import ReplicationManager, crash_peer, repair
from repro.dlpt.routing import route_path
from repro.dlpt.service import DiscoveryService


@pytest.fixture
def service(grid_system):
    svc = DiscoveryService(grid_system)
    svc.register("dgemm", attributes={"lib": "blas", "prec": "double"})
    svc.register("dgemv", attributes={"lib": "blas", "prec": "double"})
    svc.register("sgemm", attributes={"lib": "blas", "prec": "single"})
    svc.register("S3L_fft", attributes={"lib": "s3l", "prec": "double"})
    return svc


class TestRegistration:
    def test_record_kept(self, service):
        rec = service.record("dgemm")
        assert rec.name == "dgemm" and rec.attributes["lib"] == "blas"

    def test_len_counts_services(self, service):
        assert len(service) == 4

    def test_attribute_keys_registered_in_tree(self, service):
        assert "lib=blas" in service.system.tree.keys()
        assert "prec=double" in service.system.tree.keys()

    def test_unregister_removes_everything(self, service):
        assert service.unregister("S3L_fft")
        assert service.record("S3L_fft") is None
        assert "S3L_fft" not in service.system.tree.keys()
        # Shared attribute keys survive for the other services…
        assert "prec=double" in service.system.tree.keys()
        # …but the s3l-only one is gone.
        assert "lib=s3l" not in service.system.tree.keys()
        service.system.check_invariants()

    def test_unregister_unknown_returns_false(self, service):
        assert not service.unregister("nope")


class TestDiscovery:
    def test_discover_routes(self, service, rng):
        out = service.discover("dgemm", rng=rng)
        assert out.satisfied

    def test_complete(self, service):
        assert service.complete("dgem") == ["dgemm", "dgemv"]

    def test_complete_excludes_attribute_keys(self, service):
        # 'lib=…' keys live in the tree but are not primary services.
        assert service.complete("lib") == []

    def test_range_search(self, service):
        assert service.range_search("dgemm", "sgemm") == ["dgemm", "dgemv", "sgemm"]

    def test_search_dispatch(self, service):
        assert service.search(ExactQuery("dgemm")) == ["dgemm"]
        assert service.search(PrefixQuery("S3L")) == ["S3L_fft"]
        assert service.search(RangeQuery("a", "e")) == ["dgemm", "dgemv"]

    def test_search_exact_miss(self, service):
        assert service.search(ExactQuery("qq")) == []


class TestMultiAttribute:
    def test_conjunction(self, service):
        q = MultiAttributeQuery(
            clauses={"lib": ExactQuery("blas"), "prec": ExactQuery("double")}
        )
        assert service.multi_attribute_search(q) == ["dgemm", "dgemv"]

    def test_prefix_clause(self, service):
        q = MultiAttributeQuery(clauses={"lib": PrefixQuery("s")})
        assert service.multi_attribute_search(q) == ["S3L_fft"]

    def test_prefix_clause_shared_value(self, service):
        q = MultiAttributeQuery(clauses={"lib": PrefixQuery("b")})
        assert service.multi_attribute_search(q) == ["dgemm", "dgemv", "sgemm"]

    def test_range_clause(self, service):
        q = MultiAttributeQuery(clauses={"prec": RangeQuery("double", "single")})
        assert set(service.multi_attribute_search(q)) == {
            "dgemm", "dgemv", "sgemm", "S3L_fft",
        }

    def test_empty_intersection_short_circuits(self, service):
        q = MultiAttributeQuery(
            clauses={"lib": ExactQuery("s3l"), "prec": ExactQuery("single")}
        )
        assert service.multi_attribute_search(q) == []


class TestSetQueriesAfterChurn:
    """The set-returning searches on trees reshaped by peer/key churn.

    The PGCP tree depends only on the registered key set, so peer churn
    must leave every set query unchanged, while registration churn must be
    reflected exactly — both directions are pinned here.
    """

    def _snapshot(self, service):
        return (
            service.complete("dgem"),
            service.complete("S3L"),
            service.range_search("d", "t"),
            service.multi_attribute_search(
                MultiAttributeQuery(clauses={"lib": ExactQuery("blas")})
            ),
        )

    def test_peer_churn_leaves_set_queries_invariant(self, service, rng):
        before = self._snapshot(service)
        system = service.system
        for pid in ("churn1", "churn2", "churn3"):
            system.add_peer(rng, peer_id=pid, capacity=5)
        for _ in range(4):
            system.remove_peer(system.ring.id_at(rng.randrange(len(system.ring))))
        system.check_invariants()
        assert self._snapshot(service) == before

    def test_registration_churn_is_reflected_exactly(self, service, rng):
        service.register("dgetrf", attributes={"lib": "blas", "prec": "double"})
        service.register("S3L_sort", attributes={"lib": "s3l"})
        service.unregister("dgemv")
        system = service.system
        for _ in range(2):
            system.remove_peer(system.ring.id_at(rng.randrange(len(system.ring))))
        assert service.complete("dge") == ["dgemm", "dgetrf"]
        assert service.range_search("S", "T") == ["S3L_fft", "S3L_sort"]
        q = MultiAttributeQuery(
            clauses={"lib": ExactQuery("blas"), "prec": ExactQuery("double")}
        )
        assert service.multi_attribute_search(q) == ["dgemm", "dgetrf"]
        q = MultiAttributeQuery(clauses={"lib": PrefixQuery("s")})
        assert service.multi_attribute_search(q) == ["S3L_fft", "S3L_sort"]
        system.check_invariants()


class TestSetQueriesAfterCrash:
    """Set queries on crash-damaged and repaired trees.

    A fail-stop crash removes the victim's filled nodes; completion, range
    and multi-attribute answers must shrink to exactly the surviving keys
    (never error, never resurrect), and come back after repair.
    """

    def _crashed(self, service, rng, *, factor=1):
        system = service.system
        replication = ReplicationManager(system, factor=factor)
        replication.replicate_all()
        victim = system.mapping.host_of("dgemm").id
        report = crash_peer(system, victim)
        replication.on_peer_removed(victim)
        return replication, report

    def _snapshot(self, service):
        return (
            service.complete("dgem"),
            service.range_search("a", "z"),
            service.multi_attribute_search(
                MultiAttributeQuery(clauses={"prec": ExactQuery("double")})
            ),
        )

    def test_damaged_tree_answers_with_survivors_only(self, service, rng):
        before_multi = self._snapshot(service)[2]
        _, report = self._crashed(service, rng)
        lost_names = {k for k in report.lost_keys if service.record(k)}
        assert lost_names  # the victim really hosted primary keys
        # Key-band searches answer from the tree's surviving key nodes…
        surviving = set(service.system.tree.keys())
        assert not (set(service.complete("dgem")) & lost_names)
        assert not (set(service.range_search("a", "z")) & lost_names)
        assert set(service.complete("dgem")) <= surviving
        assert set(service.range_search("a", "z")) <= surviving
        # …while conjunctions answer from the attribute bands, which are
        # independent nodes: they may still name a crashed primary (the
        # record outlives the key node) but never invent new answers.
        after_multi = self._snapshot(service)[2]
        assert set(after_multi) <= set(before_multi)

    def test_repair_restores_every_search_mode(self, service, rng):
        before = self._snapshot(service)
        assert before[0]  # the fixture must actually cover the crash band
        replication, report = self._crashed(service, rng)
        repair(service.system, replication, lost_keys=report.lost_keys)
        service.system.check_invariants()
        assert self._snapshot(service) == before

    def test_attribute_band_loss_narrows_conjunctions(self, service, rng):
        """Losing an ``attr=value`` band node drops that clause's matches
        even when the primary names survive — the conjunction must reflect
        the tree as it is, not the records as they were."""
        system = service.system
        replication = ReplicationManager(system, factor=1)
        replication.replicate_all()
        victim = system.mapping.host_of("lib=blas").id
        report = crash_peer(system, victim)
        replication.on_peer_removed(victim)
        q = MultiAttributeQuery(clauses={"lib": ExactQuery("blas")})
        if "lib=blas" in report.lost_keys:
            assert service.multi_attribute_search(q) == []
        else:
            assert service.multi_attribute_search(q) == ["dgemm", "dgemv", "sgemm"]



class TestCompletionCost:
    """A completion's cost is ``execute(PrefixQuery).logical_hops``: the
    paper's route to the scan root (climb to the join, then descend), plus
    one hop per further node the scan visits."""

    def test_cost_counts_climb_plus_subtree(self, service):
        tree = service.system.tree
        scan_root = "dgem"
        assert tree.node(scan_root) is not None
        subtree = sum(1 for label in tree.labels() if label.startswith(scan_root))
        for entry in sorted(tree.labels()):
            cost = service.execute(PrefixQuery("dgem"), entry_label=entry).logical_hops
            route = route_path(tree, entry, scan_root)
            assert route.found
            assert cost == route.logical_hops + subtree - 1

    def test_cost_for_missing_band(self, service):
        tree = service.system.tree
        out = service.execute(PrefixQuery("zzz"), entry_label="dgemm")
        assert out.results == () and out.nodes_scanned == 0
        # The request climbs out of dgemm's branch and dies at the tip of
        # the band's spine, which is the walk's dead end for the same key.
        assert out.logical_hops == route_path(tree, "dgemm", "zzz").logical_hops
        assert out.logical_hops > 0
