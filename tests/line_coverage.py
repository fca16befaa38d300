"""Line coverage of ``src/orthocheck`` by the Tier-1 suite, stdlib only.

Runs Tier-1 in this process (``pytest.main`` with ``--hypothesis-seed=0``)
under a ``sys.settrace`` tracer that records lines only in the package's
own files, then lists every executable line that never ran.  A line no
test runs is dead or untested.  Lines inside ``if TYPE_CHECKING:`` blocks
are skipped, and so is ``__main__.py``, which only subprocess tests run.
Exits non-zero on a failing test or on any listed line::

    PYTHONPATH=src python tests/line_coverage.py

The name does not start with ``test_``, so pytest does not collect it.
"""

import ast
import dis
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orthocheck"
SKIPPED = {"__main__.py"}


def executable_lines(path):
    """Line numbers that start bytecode in ``path``, outside any
    ``if TYPE_CHECKING:`` block."""
    text = path.read_text(encoding="utf-8")
    codes = [compile(text, str(path), "exec")]
    lines = set()
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def _ranges(lines):
    """``[3, 4, 5, 9]`` as ``"3-5, 9"``."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


class _Lines(set):
    """The lines run in one file, and the local tracer that records them.
    It returns itself, so tracing a frame makes no new object: a closure
    that returned itself would leave a reference cycle per traced call,
    which the suite's cyclic-garbage test counts."""

    def __call__(self, frame, event, arg):
        if event == "line":
            self.add(frame.f_lineno)
        return self


def main():
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in SKIPPED}
    ran = {name: _Lines() for name in files}
    # Each code file name, as the interpreter spells it, to its lines or None.
    by_name = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        return by_name[name]

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = {name: executable_lines(path) - ran[name]
              for name, path in files.items()}
    missed = {name: lines for name, lines in missed.items() if lines}
    for name, lines in missed.items():
        print(f"{Path(name).relative_to(ROOT)}: never ran: {_ranges(lines)}")
    if not missed:
        print(f"every src line ran ({len(files)} files)")
    return int(code) or (1 if missed else 0)


if __name__ == "__main__":
    sys.exit(main())
