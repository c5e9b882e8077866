"""Unreached-line census of ``src/repro`` under a pytest run (stdlib ``sys.settrace``).

Run from the repository root; arguments after ``--`` go to pytest (default:
the tier-1 suite)::

    python3 tools/linecensus.py --out linecensus.json -- tests/core -q

Executable lines come from each code object's ``co_lines`` (the module
compiled from source, nested code objects included); a line is reached when
a traced ``src/repro`` frame reports it.  The JSON report (schema
``repro-census/1``) lists every module's executable-line count and its
unreached lines, and the table printed last gives the count per module.
Only this process is traced: code run by spawned workers or subprocesses
(``-m net`` worker processes, the example scripts) counts as unreached.
Tracing slows the suite, so a timing-sensitive test may fail under it; every
failed test is printed by node id, the report is still written, and the exit
status is pytest's.  A run that removed the census tracer (a test calling
``sys.settrace`` without restoring it) is not a census: it says so on
stderr and exits non-zero even when pytest passed.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = "repro-census/1"


def code_lines(code) -> set[int]:
    """Line numbers the instructions of ``code`` alone are attributed to
    (a module's entry instruction reports line 0, which is no line)."""
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: pathlib.Path) -> set[int]:
    """Every line of ``path`` that some code object, at any depth, runs."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines |= code_lines(code)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Census:
    """Line tracer limited to the ``.py`` files under ``root``.

    Each traced code object keeps the set of its lines not yet seen; once
    that set is empty, later frames of the code run untraced.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.root = pathlib.Path(root).resolve()
        self._in_scope: dict[str, pathlib.Path | None] = {}
        #: code object -> (module path, lines not yet reached)
        self._pending: dict[object, tuple[pathlib.Path, set[int]]] = {}
        self._saved = (None, None)

    def _scope(self, filename: str):
        path = self._in_scope.get(filename, False)
        if path is False:
            resolved = pathlib.Path(filename).resolve()
            path = resolved if resolved.is_relative_to(self.root) else None
            self._in_scope[filename] = path
        return path

    def _call(self, frame, event, arg):
        code = frame.f_code
        entry = self._pending.get(code)
        if entry is None:
            path = self._scope(code.co_filename)
            if path is None:
                return None
            entry = self._pending[code] = (path, code_lines(code))
        if not entry[1]:
            return None
        entry[1].discard(frame.f_lineno)
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self._pending[frame.f_code][1].discard(frame.f_lineno)
        return self._line

    def start(self) -> None:
        self._saved = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> bool:
        """Restore the tracing found at :meth:`start`; ``False`` when the
        census tracer had been removed before (something in the run called
        ``sys.settrace`` and did not give it back: every line after that
        counts as unreached)."""
        intact = sys.gettrace() == self._call
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])
        return intact

    def unreached(self) -> dict[str, dict]:
        """``{relative path: {"executable": n, "unreached": [lines]}}`` for
        every ``.py`` file under the root, imported or not."""
        reached: dict[pathlib.Path, set[int]] = {}
        for code, (path, pending) in self._pending.items():
            reached.setdefault(path, set()).update(code_lines(code) - pending)
        out = {}
        for path in sorted(self.root.rglob("*.py")):
            lines = executable_lines(path)
            out[path.relative_to(self.root).as_posix()] = {
                "executable": len(lines),
                "unreached": sorted(lines - reached.get(path, set())),
            }
        return out


class _Failures:
    """pytest plugin: the node id of every failed test phase."""

    def __init__(self) -> None:
        self.failed: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed and report.nodeid not in self.failed:
            self.failed.append(report.nodeid)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="linecensus.json", help="report path")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest (after --)")
    args = parser.parse_args(argv)
    import pytest

    src = str(ROOT / "src")
    sys.path.insert(0, src)  # and for subprocesses, as tier-1's PYTHONPATH=src
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    census = Census(ROOT / "src" / "repro")
    failures = _Failures()
    census.start()
    try:
        status = int(pytest.main(args.pytest_args, plugins=[failures]))
    finally:
        intact = census.stop()
    if not intact:
        print("error: the census tracer was removed during the run (a test called "
              "sys.settrace and did not restore it); the counts below are not a census",
              file=sys.stderr)
        status = status or 1
    modules = census.unreached()
    report = {"schema": SCHEMA, "pytest_args": args.pytest_args, "pytest_exit": status,
              "failed": failures.failed, "modules": modules}
    pathlib.Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, row in modules.items():
        print(f"{name:<40} {row['executable']:>6} {len(row['unreached']):>6}")
    total = sum(len(row["unreached"]) for row in modules.values())
    print(f"{'total unreached':<40} {sum(r['executable'] for r in modules.values()):>6} {total:>6}")
    for nodeid in failures.failed:
        print(f"FAILED {nodeid}")
    print(f"wrote {args.out}; pytest exit {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
