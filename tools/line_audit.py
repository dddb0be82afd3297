"""List the lines of ``src/arbor`` that no test runs.

Runs pytest in this process under a ``sys.settrace`` line tracer that only
follows frames of code under ``src/arbor``, then prints every executable
line that never ran as ``file:line``, one a line, in file and line order,
followed by a one-line summary.  Standard library only: no coverage package.

    python3 tools/line_audit.py                                # the whole suite
    python3 tools/line_audit.py tests/test_colorings.py        # named test modules
    python3 tools/line_audit.py --only colorings.py,cli.py     # report on these files only
    python3 tools/line_audit.py -k Tally tests/test_colorings.py   # any other pytest options

Executable lines are the line starts of every code object compiled from
each source file, less each function's ``def`` line (the enclosing code
runs that one).  Lines run only in a worker process of a ``--workers``
test are not seen.  Hypothesis's explain phase is switched off, because it
installs its own tracer.  The exit code is pytest's; the tracer slows
arbor's own code several times over, so a test with a wall-clock bound
(acceptance criterion 07) fails under it, and its lines still count.
The whole suite took 9 to 14 minutes on a 2-core box with Python 3.11.
"""

from __future__ import annotations

import argparse
import dis
import os
import sys
import threading
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "arbor")


def executable_lines(path: str) -> set:
    """Line numbers that hold the start of some instruction in ``path``."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines: set = set()
    defs: set = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(co) if line)  # a module starts at line 0
        if co is not code:
            defs.add(co.co_firstlineno)
        stack.extend(c for c in co.co_consts if isinstance(c, CodeType))
    return lines - defs


def traced_pytest(pytest_args: list) -> tuple[int, dict]:
    """Run pytest with ``pytest_args``; return its exit code and, per file
    under ``src/arbor``, the set of lines that ran."""
    prefix = PACKAGE + os.sep
    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    class NoExplainPhase:
        """Loads a hypothesis profile without the explain phase before any
        test module is imported, so every ``@settings`` inherits it."""

        @staticmethod
        def pytest_configure(config):
            from hypothesis import Phase, settings

            settings.register_profile("line-audit", phases=[p for p in Phase if p is not Phase.explain])
            settings.load_profile("line-audit")

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[NoExplainPhase()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--only", default="", help="comma-separated file names under src/arbor to report on")
    args, pytest_args = p.parse_known_args(argv)  # the rest, test paths included, goes to pytest
    code, hits = traced_pytest(pytest_args or [os.path.join(ROOT, "tests")])
    only = {name for name in args.only.split(",") if name}
    missed = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or (only and name not in only):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        never = sorted(lines - hits.get(path, set()))
        for line in never:
            print(f"src/arbor/{name}:{line}")
        missed += len(never)
        total += len(lines)
    print(f"line audit: {missed} of {total} executable lines never ran (pytest exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
