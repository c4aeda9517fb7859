"""Run the tier-1 suite in this process and fail on any unexecuted ``src/nniou`` line.

Usage, from anywhere::

    python .github/line_coverage.py [pytest arguments]

Recording starts before ``nniou`` is imported, so module-level lines count.
It needs Python 3.12 or later and records with ``sys.monitoring``: each
LINE event is disabled after its first hit, so the suite runs at nearly
full speed.

A line is executable when a code object compiled from its module lists it
in ``co_lines()``.  A function's first line is left out: it is the ``def``
or decorator line, which the enclosing code runs.  The script exits 1 when
the suite fails, when an executable line outside ``ALLOWED`` never ran, when
an ``ALLOWED`` entry names no such line, or on a Python older than 3.12, and
0 otherwise.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nniou"

# (module, stripped source line): executable lines no in-process test can run
ALLOWED = {
    # ``python -m nniou.cli`` only; TestUsage runs it in a subprocess
    ("cli.py", "sys.exit(main())"),
}

hits: dict[str, set[int]] = {}
prefix = str(PACKAGE) + os.sep


def _start() -> None:
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    monitoring.use_tool_id(tool, "line_coverage")

    def on_line(code, line):
        if code.co_filename.startswith(prefix):
            hits.setdefault(code.co_filename, set()).add(line)
        return monitoring.DISABLE

    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)


def _executable(path: Path) -> set[int]:
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        module = code.co_name == "<module>"
        # a module's first instruction sits on line 0
        lines.update(line for _, _, line in code.co_lines()
                     if line and (module or line != code.co_firstlineno))
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("line coverage needs Python 3.12 or later (sys.monitoring), got "
              f"{sys.version.split()[0]}", file=sys.stderr)
        return 1
    if any(name == "nniou" or name.startswith("nniou.") for name in sys.modules):
        print("nniou was imported before recording started", file=sys.stderr)
        return 1
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # for the tests that run ``python -m nniou.cli`` in a subprocess
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    _start()
    import pytest

    status = pytest.main(["-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    if status != 0:
        print(f"the suite failed (pytest exit {status}); coverage not checked",
              file=sys.stderr)
        return 1
    missed, allowed = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(_executable(path) - hits.get(str(path), set())):
            key = (path.name, source[line - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
            else:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {key[1]}")
    stale = sorted(ALLOWED - allowed)
    for entry in missed:
        print(f"never executed: {entry}", file=sys.stderr)
    for name, text in stale:
        print(f"allowed but executed or gone: {name}: {text}", file=sys.stderr)
    if missed or stale:
        return 1
    print(f"every executable line of {PACKAGE.relative_to(ROOT)} ran, "
          f"{len(ALLOWED)} allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
