"""Every ``examples/*.py`` runs to completion, and every ``repro`` import
it names resolves.

Each example is executed as its own process against the source tree, with
the working and temporary directories pointed at a scratch directory, and
must exit 0.  Running them (not just resolving their imports) is what
catches a stale attribute path such as ``eng.transport.some_removed.counter``.
The static resolver (``ast`` + ``importlib``) complements the run: it also
sees imports on branches a run does not take, and names the missing one.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # `from package import submodule`
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_examples_exist():
    assert EXAMPLES, "examples/ holds no scripts; drop this test with them"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_every_repro_import_resolves(path):
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                missing += [
                    f"{node.module}.{alias.name} (line {node.lineno})"
                    for alias in node.names
                    if not _resolves(node.module, alias.name)
                ]
    assert not missing, f"{path.name} imports names that do not exist: {missing}"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path, tmp_path):
    src = str(REPO / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "TMPDIR": str(tmp_path),
    }
    proc = subprocess.run(
        [sys.executable, str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, f"{path.name} exited {proc.returncode}:\n{proc.stderr}"
    assert proc.stdout.strip(), f"{path.name} printed nothing"
