"""Query model: match predicates, multi-attribute composition, and the
spec layer (parse / validate / canonical signature)."""

from __future__ import annotations

import pytest

from repro.core.alphabet import BINARY
from repro.core.queries import (
    ExactQuery,
    MultiAttributeQuery,
    PrefixQuery,
    QuerySpecError,
    RangeQuery,
    attribute_key,
    parse_query,
    validate_query,
)


class TestExact:
    def test_match(self):
        q = ExactQuery("dgemm")
        assert q.matches("dgemm")
        assert not q.matches("dgemv")

    def test_describe(self):
        assert ExactQuery("x").describe() == "exact:x"


class TestPrefix:
    def test_match(self):
        q = PrefixQuery("dge")
        assert q.matches("dgemm") and q.matches("dgetrf")
        assert not q.matches("sgemm")

    def test_empty_prefix_matches_all(self):
        assert PrefixQuery("").matches("anything")


class TestRange:
    def test_match_inclusive_bounds(self):
        q = RangeQuery("dgemm", "dger")
        assert q.matches("dgemm") and q.matches("dger")
        assert q.matches("dgemv")
        assert not q.matches("dgesv")  # 'dges' > 'dger'

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            RangeQuery("z", "a")


class TestAttributeKey:
    def test_composition(self):
        assert attribute_key("os", "linux") == "os=linux"

    def test_separator_in_attribute_rejected(self):
        with pytest.raises(ValueError):
            attribute_key("o=s", "linux")


class TestMultiAttribute:
    def test_requires_clause(self):
        with pytest.raises(ValueError):
            MultiAttributeQuery(clauses={})

    def test_rebases_each_clause_kind(self):
        q = MultiAttributeQuery(
            clauses={
                "name": ExactQuery("dgemm"),
                "arch": PrefixQuery("x86"),
                "mem": RangeQuery("128", "512"),
            }
        )
        sub = q.attribute_queries()
        assert sub["name"] == ExactQuery("name=dgemm")
        assert sub["arch"] == PrefixQuery("arch=x86")
        assert sub["mem"] == RangeQuery("mem=128", "mem=512")

    def test_describe_is_sorted_and_stable(self):
        q = MultiAttributeQuery(
            clauses={"b": ExactQuery("2"), "a": ExactQuery("1")}
        )
        assert q.describe() == "multi:{a~exact:1, b~exact:2}"


class TestParseQuery:
    def test_string_specs(self):
        assert parse_query("exact:dgemm") == ExactQuery("dgemm")
        assert parse_query("prefix:dge") == PrefixQuery("dge")
        assert parse_query("range:a:b") == RangeQuery("a", "b")

    def test_dict_specs(self):
        assert parse_query({"kind": "prefix", "prefix": "dg"}) == PrefixQuery("dg")
        multi = parse_query(
            {"kind": "multi", "clauses": {"os": "exact:linux", "mem": "range:1:2"}}
        )
        assert multi.clauses["os"] == ExactQuery("linux")
        assert multi.clauses["mem"] == RangeQuery("1", "2")

    def test_query_objects_pass_through(self):
        q = PrefixQuery("dg")
        assert parse_query(q) is q

    @pytest.mark.parametrize(
        "spec",
        [
            "noseparator",
            "glob:x*",
            "range:only-one-bound",
            {"kind": "range", "lo": "a"},  # missing hi
            {"kind": "glob"},
            {"kind": "multi", "clauses": {}},
            {"kind": "multi", "clauses": {"os": 42}},
            object(),
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(QuerySpecError):
            parse_query(spec)

    def test_empty_range_fails_at_parse_time(self):
        """Inverted bounds surface as a spec error when the spec is built,
        not as an arbitrary ValueError mid-walk."""
        with pytest.raises(QuerySpecError, match="empty range"):
            parse_query("range:z:a")
        with pytest.raises(QuerySpecError, match="empty range"):
            parse_query({"kind": "range", "lo": "z", "hi": "a"})

    def test_alphabet_moves_bound_validation_to_parse_time(self):
        assert parse_query("range:00:11", BINARY) == RangeQuery("00", "11")
        with pytest.raises(QuerySpecError):
            parse_query("range:00:2a", BINARY)
        with pytest.raises(QuerySpecError):
            parse_query("exact:xyz", BINARY)
        # The empty prefix (match everything) stays legal under any alphabet.
        assert parse_query("prefix:", BINARY) == PrefixQuery("")


class TestValidateQuery:
    def test_no_alphabet_checks_structure_only(self):
        q = ExactQuery("anything-at-all")
        assert validate_query(q) is q

    def test_multi_clauses_validated_through_rebasing(self):
        # The rebased key "os=0" contains '=' and 'o', both outside BINARY:
        # validation must reject the composed keys, not the raw values.
        q = MultiAttributeQuery(clauses={"os": ExactQuery("0")})
        with pytest.raises(QuerySpecError):
            validate_query(q, BINARY)


class TestQuerySignature:
    def test_signature_round_trips_through_parse(self):
        """Every query kind's canonical dict form, multi-attribute included,
        parses to the query it names."""
        cases = [
            ({"kind": "exact", "key": "k"}, ExactQuery("k")),
            ({"kind": "prefix", "prefix": ""}, PrefixQuery("")),
            ({"kind": "range", "lo": "a", "hi": "b"}, RangeQuery("a", "b")),
            (
                {"kind": "multi", "clauses": {"os": {"kind": "exact", "key": "linux"}}},
                MultiAttributeQuery(clauses={"os": ExactQuery("linux")}),
            ),
        ]
        for spec, query in cases:
            assert parse_query(spec) == query
