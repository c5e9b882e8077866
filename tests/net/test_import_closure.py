"""The runtime imports only the runtime.

``python -m repro serve`` and the engine-group workers it spawns load
``repro.net``, ``repro.dlpt.{protocol,messages}``, ``repro.core.{ids,
keyspace}`` and ``repro.util.specs`` — no NumPy, no experiment stack, no
macro model.  Each test runs a fresh interpreter with
a ``numpy`` package that refuses to import first on ``PYTHONPATH``;
spawned workers inherit it, so the live smokes prove the worker closure
too.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Packages and modules the runtime must never load.
FORBIDDEN = (
    "numpy",
    "repro.experiments",
    "repro.sweeps",
    "repro.perf",
    "repro.lb",
    "repro.dlpt.system",
)


@pytest.fixture
def no_numpy(tmp_path):
    """An environment whose ``import numpy`` raises ``ImportError``."""
    poisoned = tmp_path / "numpy"
    poisoned.mkdir()
    (poisoned / "__init__.py").write_text(
        'raise ImportError("numpy is not installed")\n', encoding="utf-8"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(SRC)])
    return env


def _python(env, *args, timeout=60):
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


class TestImportClosure:
    def test_serve_help_runs_without_numpy(self, no_numpy):
        proc = _python(no_numpy, "-m", "repro", "serve", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "--processes" in proc.stdout

    def test_runtime_modules_load_nothing_else(self, no_numpy):
        proc = _python(no_numpy, "-c", (
            "import json, sys\n"
            "import repro.net.serve, repro.net.procgroup\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        leaked = [
            name for name in loaded
            if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
        ]
        assert leaked == []
        assert "repro.net.serve" in loaded and "repro.dlpt.protocol" in loaded

    def test_every_public_name_resolves(self, no_numpy):
        proc = _python(no_numpy, "-c", (
            "import repro\n"
            "names = {}\n"
            "exec('from repro import ' + ', '.join(repro.__all__), names)\n"
            "assert all(name in names for name in repro.__all__)\n"
            "print(len(repro.__all__))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == 15


@pytest.mark.net
class TestServeWithoutNumpy:
    @pytest.mark.parametrize("processes", ["1", "2"])
    def test_demo_passes(self, no_numpy, processes):
        proc = _python(
            no_numpy, "-m", "repro", "serve", "--peers", "8",
            "--processes", processes, "--demo", timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "demo passed" in proc.stdout
