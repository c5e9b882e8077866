"""Documentation consistency gate (tier-1).

Keeps the repository discoverable as it grows: every module under
``src/repro/`` carries a docstring, the README's architecture map names
every package, every example states the paper figure/section it animates,
and the README's code blocks actually run (``doctest``).
"""

from __future__ import annotations

import ast
import doctest
import importlib
import inspect
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
README = REPO_ROOT / "README.md"
EXAMPLES = REPO_ROOT / "examples"


def repro_modules() -> list[pathlib.Path]:
    return sorted(SRC.rglob("*.py"))


def repro_packages() -> list[str]:
    return sorted(
        p.name for p in SRC.iterdir() if p.is_dir() and (p / "__init__.py").exists()
    )


class TestModuleDocstrings:
    @pytest.mark.parametrize(
        "path", repro_modules(), ids=lambda p: str(p.relative_to(SRC))
    )
    def test_every_module_has_a_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), (
            f"{path.relative_to(REPO_ROOT)} lacks a module docstring; "
            "state what the module implements (and where in the paper it "
            "comes from, if anywhere)"
        )


class TestReadme:
    def test_readme_exists(self):
        assert README.exists(), "the repository must have a root README.md"

    @pytest.mark.parametrize("package", repro_packages())
    def test_architecture_map_names_every_package(self, package):
        text = README.read_text()
        assert f"repro.{package}" in text, (
            f"README.md's architecture map omits the repro.{package} package; "
            "add a row describing it"
        )

    def test_readme_points_at_project_state(self):
        text = README.read_text()
        for pointer in ("ROADMAP.md", "CHANGES.md", "BENCH_micro.json",
                        "docs/benchmarks.md", "docs/reproduction.md",
                        "docs/runtime.md", "docs/queries.md"):
            assert pointer in text, f"README.md should point at {pointer}"

    def test_readme_code_blocks_run(self):
        failures, tests = doctest.testfile(
            str(README), module_relative=False, verbose=False
        )
        assert tests > 0, "README.md should contain runnable doctest examples"
        assert failures == 0, f"{failures} README.md doctest example(s) failed"


class TestBenchmarksDoc:
    def test_schemas_are_documented(self):
        doc = (REPO_ROOT / "docs" / "benchmarks.md").read_text()
        for needle in ("repro-bench/1", "repro-trace/1", "repro-metrics/1",
                       "--mode ratio", "--mode absolute"):
            assert needle in doc, f"docs/benchmarks.md must document {needle}"

    def test_documented_schema_tags_match_the_code(self):
        from repro.experiments.metrics import METRICS_SCHEMA
        from repro.perf.bench import SCHEMA
        from repro.workloads.traces import TRACE_SCHEMA

        doc = (REPO_ROOT / "docs" / "benchmarks.md").read_text()
        for tag in (SCHEMA, TRACE_SCHEMA, METRICS_SCHEMA):
            assert tag in doc


class TestBenchmarksAreWired:
    """A script under ``benchmarks/`` that no CI step runs and no document
    names is an orphan: nothing would notice it rot."""

    @pytest.mark.parametrize(
        "path",
        sorted((REPO_ROOT / "benchmarks").glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_every_benchmark_script_is_run_or_documented(self, path):
        places = [REPO_ROOT / ".github" / "workflows" / "ci.yml", README]
        places += sorted((REPO_ROOT / "docs").glob("*.md"))
        assert any(path.name in place.read_text() for place in places), (
            f"benchmarks/{path.name} is named by no CI step, README.md or "
            "docs/*.md; wire it in or delete it"
        )


class TestReproductionDoc:
    """docs/reproduction.md: the one-command reproduction guide and the
    figure gallery must track the artifact registry in code."""

    DOC = REPO_ROOT / "docs" / "reproduction.md"

    def test_guide_exists(self):
        assert self.DOC.exists(), (
            "docs/reproduction.md must document the checkout-to-figures "
            "pipeline (python -m repro paper)"
        )

    def test_schemas_and_semantics_are_documented(self):
        doc = self.DOC.read_text()
        for needle in ("repro-result/1", "repro-manifest/1", "REPRO_WORKERS",
                       "--shard", "--force", "python -m repro paper",
                       "sweep_cached"):
            assert needle in doc, f"docs/reproduction.md must document {needle}"

    def test_documented_schema_tags_match_the_code(self):
        from repro.sweeps import MANIFEST_SCHEMA, RESULT_SCHEMA

        doc = self.DOC.read_text()
        for tag in (RESULT_SCHEMA, MANIFEST_SCHEMA):
            assert tag in doc

    def test_every_paper_artifact_has_a_gallery_entry(self):
        """`repro paper` may not grow an artifact without the gallery
        growing a matching section (### <name>) carrying its paper anchor."""
        from repro.experiments import ARTIFACTS

        doc = self.DOC.read_text()
        for name, artifact in ARTIFACTS.items():
            assert f"### {name}" in doc, (
                f"docs/reproduction.md's figure gallery lacks a section for "
                f"the {name} artifact; add '### {name} — ...'"
            )
            assert artifact.anchor in doc, (
                f"docs/reproduction.md must state {name}'s paper anchor "
                f"({artifact.anchor!r})"
            )

    def test_benchmarks_doc_links_the_guide(self):
        assert "reproduction.md" in (REPO_ROOT / "docs" / "benchmarks.md").read_text(), (
            "docs/benchmarks.md should cross-link docs/reproduction.md"
        )

    def test_readme_documents_repro_workers(self):
        assert "REPRO_WORKERS" in README.read_text(), (
            "README.md must document the REPRO_WORKERS override"
        )


class TestRuntimeDoc:
    """docs/runtime.md: the transport seam, the wire schema and the
    conformance methodology must stay documented as the runtime grows."""

    DOC = REPO_ROOT / "docs" / "runtime.md"

    def test_guide_exists(self):
        assert self.DOC.exists(), (
            "docs/runtime.md must document the Transport interface, the "
            "repro-wire/1 schema and the conformance methodology"
        )

    def test_interface_schema_and_methodology_are_documented(self):
        doc = self.DOC.read_text()
        for needle in ("Transport", "repro-wire/1", "drain", "dead-letter",
                       "SimTransport", "AsyncioTransport",
                       "LoopbackAsyncioTransport", "set_resolve",
                       "one socket transport", "require_scalar",
                       "conformance", "python -m repro serve",
                       "pytest -m net", "@broker", "DLPTClient",
                       "--processes", "retry_after", "busy",
                       "parse_spec", "SpecError", "LocalCluster",
                       "MultiProcessCluster", "successor_of",
                       "Failure semantics", "ChaosTransport", "chaos:",
                       "--chaos", "--supervise", "RetryPolicy", "jitter",
                       "heartbeat", "crash", "ClusterRecovering",
                       "DLPTClientReset", "crash_storm", "partition"):
            assert needle in doc, f"docs/runtime.md must document {needle}"

    def test_every_test_the_guide_names_exists(self):
        """Failure-semantics rows name the test that provokes them; a
        renamed or deleted test must not leave the row pointing nowhere."""
        named = re.findall(r"`(tests/[\w/]+\.py)((?:::\w+)*)`", self.DOC.read_text())
        assert named, "docs/runtime.md names no tests"
        for path, names in named:
            source = (REPO_ROOT / path).read_text()
            for name in filter(None, names.split("::")):
                assert re.search(rf"(class|def) {name}\b", source), f"{path}::{name}"

    def test_documented_schema_tag_matches_the_code(self):
        from repro.net.bootstrap import REGISTRY_SCHEMA
        from repro.net.wire import WIRE_SCHEMA

        doc = self.DOC.read_text()
        assert WIRE_SCHEMA in doc
        assert REGISTRY_SCHEMA in doc, (
            "docs/runtime.md must document the registry journal schema"
        )

    def test_every_wire_message_type_is_documented(self):
        """The schema reference must enumerate exactly the dataclasses the
        codec accepts — adding or deleting one silently would fork doc
        from code in either direction."""
        from repro.net.wire import MESSAGE_TYPES

        listed = re.search(
            r"dataclasses in `repro\.dlpt\.messages` \((.*?) —", self.DOC.read_text(), re.S
        )
        assert listed, "docs/runtime.md lost its repro-wire/1 message list"
        assert set(re.findall(r"`(\w+)`", listed.group(1))) == set(MESSAGE_TYPES)

    def test_counter_invariant_is_stated(self):
        assert "messages_sent == messages_delivered" in self.DOC.read_text()


class TestQueriesDoc:
    """docs/queries.md: the set-query model, its hop accounting and the
    queries: workload axis must stay documented as the feature grows."""

    DOC = REPO_ROOT / "docs" / "queries.md"

    def test_guide_exists(self):
        assert self.DOC.exists(), (
            "docs/queries.md must document the query model, the hop "
            "accounting rules and the queries: workload axis"
        )

    def test_model_accounting_and_axis_are_documented(self):
        doc = self.DOC.read_text()
        for needle in ("ExactQuery", "PrefixQuery", "RangeQuery",
                       "MultiAttributeQuery", "parse_query",
                       "QuerySpecError", "logical_hops", "physical_hops",
                       "Empty band", "SetQueryRequest", "SetQueryReply",
                       "search_query", "query_cost", "queries_issued",
                       "query_hop_histogram", "mixed:n="):
            assert needle in doc, f"docs/queries.md must document {needle}"

    def test_every_spec_kind_is_documented(self):
        from repro.workloads.queries import QUERY_KINDS

        doc = self.DOC.read_text()
        for kind in QUERY_KINDS:
            assert f'"{kind}' in doc, (
                f"docs/queries.md must document the {kind!r} query spec kind"
            )

    def test_cross_links(self):
        doc = self.DOC.read_text()
        assert "runtime.md" in doc and "reproduction.md" in doc
        assert "queries.md" in (REPO_ROOT / "docs" / "runtime.md").read_text(), (
            "docs/runtime.md should cross-link docs/queries.md"
        )
        assert "queries.md" in (REPO_ROOT / "docs" / "reproduction.md").read_text(), (
            "docs/reproduction.md should cross-link docs/queries.md"
        )


def class_members() -> dict[str, set[str]]:
    """Class name → every name a reference may follow it with: methods,
    class-level assignments and dataclass fields, the ``self.<name>``
    attributes its methods assign, and the same of its bases defined
    under ``src/repro``."""
    own: dict[str, set[str]] = {}
    bases: dict[str, set[str]] = {}
    for path in repro_modules():
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = own.setdefault(cls.name, set())
            bases.setdefault(cls.name, set()).update(
                b.id if isinstance(b, ast.Name) else b.attr
                for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))
            )
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            for item in ast.walk(cls):
                if (isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store)
                        and isinstance(item.value, ast.Name) and item.value.id == "self"):
                    names.add(item.attr)
    members = {}
    for name in own:
        seen, todo = set(), [name]
        while todo:
            cls = todo.pop()
            if cls in own and cls not in seen:
                seen.add(cls)
                todo.extend(bases[cls])
        members[name] = set().union(*(own[cls] for cls in seen))
    return members


def reference_resolves(dotted: str, members: dict[str, set[str]]) -> bool:
    """``repro.…`` imports and attribute-walks; ``Class.name`` must name a
    member of that class (see :func:`class_members`)."""
    head, *rest = dotted.split(".")
    if head != "repro":
        return rest[0] in members[head]
    obj, path = importlib.import_module("repro"), "repro"
    for part in rest:
        if inspect.ismodule(obj):
            try:
                obj, path = importlib.import_module(f"{path}.{part}"), f"{path}.{part}"
                continue
            except ModuleNotFoundError:
                pass
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            return inspect.isclass(obj) and part in members.get(obj.__name__, ())
    return True


class TestCodeReferences:
    """A backticked dotted name in the docs that no longer resolves sends
    the reader after code that is gone or lives elsewhere."""

    def test_every_dotted_reference_resolves(self):
        members = class_members()
        stale = []
        for doc in [README, *sorted((REPO_ROOT / "docs").glob("*.md"))]:
            text = re.sub(r"```.*?```", lambda m: "\n" * m.group().count("\n"),
                          doc.read_text(), flags=re.S)
            for lineno, line in enumerate(text.splitlines(), 1):
                for span in re.findall(r"`([^`]+)`", line):
                    name = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
                    if name is None:
                        continue
                    dotted = name.group()
                    head = dotted.split(".")[0]
                    if (head == "repro" or head in members) and not reference_resolves(
                        dotted, members
                    ):
                        stale.append(f"{doc.relative_to(REPO_ROOT)}:{lineno}: {dotted}")
        assert not stale, "stale code references:\n" + "\n".join(stale)


class TestExamples:
    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.name
    )
    def test_example_docstring_states_its_paper_anchor(self, path):
        doc = ast.get_docstring(ast.parse(path.read_text())) or ""
        anchors = ("Figure", "Section", "Table", "Algorithm")
        assert any(a in doc for a in anchors), (
            f"examples/{path.name} must state which paper figure/section/"
            "table/algorithm it reproduces"
        )

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.py")), ids=lambda p: p.name
    )
    def test_example_is_listed_in_readme(self, path):
        assert path.name in README.read_text(), (
            f"README.md's examples section omits examples/{path.name}"
        )
