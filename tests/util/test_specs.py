"""The unified spec surface: registry, error hierarchy, signatures.

Every compact-spec syntax (workloads, faults, queries, balancers, chaos)
goes through ``repro.util.specs.parse_spec``; these tests pin the registry
contract — one entry point, one ``SpecError`` hierarchy, one
``spec_signature`` for the kinds that enter a config's identity.
"""

from __future__ import annotations

import pytest

from repro.core.queries import QuerySpecError
from repro.faults.spec import FaultSpecError
from repro.lb import BalancerSpecError
from repro.util.specs import (
    SpecError,
    UnknownSpecKindError,
    parse_options,
    parse_spec,
    register_spec_kind,
    spec_kinds,
    spec_signature,
    split_spec,
)
from repro.workloads.spec import WorkloadSpecError


class TestTokenisation:
    def test_split_spec(self):
        assert split_spec("zipf:1.2:n=4") == ("zipf", ["1.2", "n=4"])
        assert split_spec("uniform") == ("uniform", [])

    def test_parse_options(self):
        assert parse_options(["a=1", "b=x"], "spec") == {"a": "1", "b": "x"}

    def test_parse_options_rejects_bare_token(self):
        with pytest.raises(SpecError, match="key=value"):
            parse_options(["oops"], "balancer:oops")


class TestRegistry:
    def test_builtin_kinds_are_registered(self):
        kinds = spec_kinds()
        for kind in ("workload", "faults", "queries", "balancer"):
            assert kind in kinds

    def test_parse_spec_dispatches_every_builtin_kind(self):
        assert parse_spec("workload", "zipf:1.2") is not None
        assert parse_spec("faults", "crash_storm:0.05") is not None
        assert parse_spec("queries", "mixed:n=2") is not None
        assert parse_spec("balancer", "mlt:fraction=0.5") is not None

    def test_unknown_kind_raises(self):
        with pytest.raises(UnknownSpecKindError, match="no-such-kind"):
            parse_spec("no-such-kind", "anything")

    def test_registering_a_kind_makes_it_parseable(self):
        register_spec_kind("test-kind", lambda v: ("parsed", v), lambda p: list(p))
        try:
            assert parse_spec("test-kind", 7) == ("parsed", 7)
            assert spec_signature("test-kind", ("parsed", 7)) == ["parsed", 7]
        finally:
            from repro.util import specs

            specs._REGISTRY.pop("test-kind", None)

    def test_kind_without_signature_surface_raises(self):
        register_spec_kind("sigless", lambda v: v, None)
        try:
            with pytest.raises(SpecError, match="signature"):
                spec_signature("sigless", "x")
        finally:
            from repro.util import specs

            specs._REGISTRY.pop("sigless", None)


class TestErrorHierarchy:
    """One ``except SpecError`` guards any mixed configuration surface,
    and pre-registry ``except ValueError`` callers keep working."""

    @pytest.mark.parametrize(
        "cls", [WorkloadSpecError, FaultSpecError, QuerySpecError, BalancerSpecError]
    )
    def test_kind_errors_derive_from_spec_error(self, cls):
        assert issubclass(cls, SpecError)
        assert issubclass(cls, ValueError)

    @pytest.mark.parametrize(
        ("kind", "bad"),
        [
            ("workload", "no-such-workload"),
            ("faults", "no-such-fault:1"),
            ("queries", "exact:n=notanumber"),
            ("balancer", "mlt:oops"),
        ],
    )
    def test_bad_values_raise_under_one_base(self, kind, bad):
        with pytest.raises(SpecError):
            parse_spec(kind, bad)


class TestSignatures:
    def test_signature_is_stable_across_parses(self):
        a = spec_signature("workload", parse_spec("workload", "zipf:1.2"))
        b = spec_signature("workload", parse_spec("workload", "zipf:1.2"))
        assert a == b

    def test_signature_distinguishes_specs(self):
        zipf = spec_signature("workload", parse_spec("workload", "zipf:1.2"))
        uniform = spec_signature("workload", parse_spec("workload", "uniform"))
        assert zipf != uniform

    @pytest.mark.parametrize(
        ("kind", "spec"), [("balancer", "kc:k=8"), ("chaos", "drop:0.1+seed=3")]
    )
    def test_kinds_outside_config_identity_have_no_signature(self, kind, spec):
        with pytest.raises(SpecError, match="signature"):
            spec_signature(kind, parse_spec(kind, spec))
