"""List the lines of a package that the test suite never runs.

    python tools/line_coverage.py SRC [PYTEST_ARGS ...]

runs pytest in this process (by default on the ``tests`` directory beside
this script's directory) with the package directory SRC first on
``sys.path``, and traces with ``sys.settrace`` every frame whose code lives
in a file under SRC.  It needs only the standard library and pytest.  At the
end of the run it prints, for each module under SRC, the executable lines
(the lines of its code objects' ``co_lines()``) that never ran, then the
totals.

A code object stops being traced once every one of its lines has run, so
the suite takes about twice its untraced time.  Code that runs only in a
child process (the CLI tests that start ``python``, the workers of
``sweep --jobs N``) is not seen.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

_UNSEEN = object()


def _code_lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line}


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object that compiling ``path`` makes."""
    todo = [compile(path.read_text(), str(path), "exec", dont_inherit=True)]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines |= _code_lines(code)
        todo += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def _ranges(lines: list[int]) -> str:
    """1, 2, 3, 5 as "1-3, 5"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


class LineCoverage:
    """A pytest plugin that records which lines under ``src`` run."""

    def __init__(self, src: Path):
        self.src = src
        self.hits: dict[str, set[int] | None] = {}   # by file; None outside src
        self.remaining: dict[object, set[int]] = {}  # by code object

    def _trace(self, frame, event, arg):
        code = frame.f_code
        hits = self.hits.get(code.co_filename, _UNSEEN)
        if hits is _UNSEEN:
            inside = Path(code.co_filename).resolve().is_relative_to(self.src)
            hits = self.hits[code.co_filename] = set() if inside else None
        if hits is None:
            return None
        remaining = self.remaining.get(code)
        if remaining is None:
            remaining = self.remaining[code] = _code_lines(code)
        if not remaining:
            return None
        hit, ran = hits.add, remaining.discard
        hit(frame.f_lineno)
        ran(frame.f_lineno)

        def trace_lines(frame, event, arg):
            if event == "line":
                hit(frame.f_lineno)
                ran(frame.f_lineno)
                if not remaining:
                    frame.f_trace_lines = False
            return trace_lines

        return trace_lines

    def start(self) -> None:
        sys.settrace(self._trace)
        threading.settrace(self._trace)

    def pytest_runtest_setup(self, item):
        # CPython unsets the trace function when it raises, as it does when a
        # test runs out of stack inside it (the CLI's too-deep expression);
        # every later test is traced again
        if sys.gettrace() is None:
            sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def pytest_terminal_summary(self, terminalreporter):
        write = terminalreporter.write_line
        terminalreporter.section("lines never run")
        hits = {Path(name).resolve(): lines for name, lines in self.hits.items() if lines}
        total = never = 0
        for path in sorted(self.src.rglob("*.py")):
            lines = executable_lines(path)
            missed = sorted(lines - hits.get(path, set()))
            total += len(lines)
            never += len(missed)
            name = path.relative_to(self.src)
            write(f"{name}: {len(missed)} of {len(lines)} lines never ran"
                  + (f": {_ranges(missed)}" if missed else ""))
        write(f"total: {never} of {total} executable lines never ran "
              f"({100 * (total - never) / max(total, 1):.1f}% ran)")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        return 2
    pytest_args = argv[1:] or [str(Path(__file__).resolve().parents[1] / "tests")]
    sys.path.insert(0, str(src))
    plugin = LineCoverage(src)
    # conftest files import the package before any pytest hook runs
    plugin.start()
    try:
        return int(pytest.main(pytest_args, plugins=[plugin]))
    finally:
        plugin.stop()


if __name__ == "__main__":
    sys.exit(main())
