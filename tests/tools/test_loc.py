"""``tools/loc.py``: the per-package line counts every size claim quotes."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("loc", REPO / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

#: Relative path -> physical lines of the synthetic checkout.
FILES = {
    "src/repro/__main__.py": 3,
    "src/repro/alpha/__init__.py": 1,
    "src/repro/alpha/core.py": 4,
    "src/repro/beta/io.py": 2,
    "src/repro/beta/sub/deep.py": 5,
    "src/repro/beta/notes.txt": 9,
    "tests/test_alpha.py": 6,
    "benchmarks/run.py": 7,
}

EXPECTED = {
    ".": 3, "alpha": 5, "beta": 7, "total": 15, "tests": 6, "benchmarks": 7,
}


def _checkout(root: pathlib.Path) -> pathlib.Path:
    for rel, n in FILES.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"x = {i}\n" for i in range(n)), encoding="utf-8")
    return root


def test_count_groups_by_package(tmp_path):
    assert dict(loc.count(_checkout(tmp_path))) == EXPECTED


def test_baseline_rows_are_now_base_delta(tmp_path):
    base_root = _checkout(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "loc.py"), "--baseline", str(base_root)],
        capture_output=True, text=True, check=True,
    )
    now = loc.count(REPO)
    rows = [line.split() for line in proc.stdout.splitlines()]
    names = [row[0] for row in rows]
    assert names[-3:] == list(loc.TOTALS)
    assert names[:-3] == sorted((set(now) | set(EXPECTED)) - set(loc.TOTALS))
    for name, n_now, n_base, delta in rows:
        assert int(n_now) == now[name], name
        assert int(n_base) == EXPECTED.get(name, 0), name
        assert int(delta) == int(n_now) - int(n_base), name
        assert delta[0] in "+-", name


def test_baseline_without_src_repro_is_refused(tmp_path):
    """A typo or a bare ref must not print every package as added."""
    (tmp_path / "src").mkdir()
    for baseline in (tmp_path, tmp_path / "HEAD"):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "loc.py"), "--baseline", str(baseline)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "src/repro" in proc.stderr
