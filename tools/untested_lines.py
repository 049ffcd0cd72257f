"""List the statements of the `cmgamma` package that no test executes.

    PYTHONPATH=src python tools/untested_lines.py [pytest arguments...]

Runs pytest in this process with the arguments given (for example `-q`, or
a test file) under a `sys.settrace` collector that traces only frames whose
code lies in the package directory, then prints, per module, each statement
that never ran: its first line number and its first line.  It needs only
the standard library and pytest, where coverage.py is not installed.  It
exits with pytest's exit code.

A statement is a simple statement, or the head of a compound one (an `if`
line, a `def` line with its decorators); it counts as run when any line of
it ran, and it is listed only if it compiles to code, so a docstring or a
bare `else:` is never listed.  Lines run only in a subprocess (the
`python -m cmgamma` tests, the benchmark's children) are not seen, nor are
lines run while a test installs a tracer of its own, so a listed statement
may still be run by some test that way.  A traced tier-1 run takes about
twice as long as an untraced one.  The golden digest test runs no
statement that the other tests miss, so leaving it out gives the same list
sooner:

    PYTHONPATH=src python tools/untested_lines.py -q \\
        --deselect tests/test_output_digests.py::test_outputs_match_the_golden_digests
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
import types

import pytest


def package_dir() -> str:
    """The directory of the `cmgamma` that the tests will import; finding it
    does not import the package, so its import is traced too."""
    spec = importlib.util.find_spec("cmgamma")
    if spec is None or not spec.submodule_search_locations:
        sys.exit("untested_lines: cmgamma is not importable (set PYTHONPATH=src)")
    return os.path.abspath(spec.submodule_search_locations[0])


def code_lines(code: types.CodeType) -> set[int]:
    """The line numbers of code and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def statements(source: str, path: str) -> list[tuple[int, range]]:
    """(first line, lines) of each statement that compiles to code; the
    lines of a compound statement are its head, up to its first child."""
    out = []
    executable = code_lines(compile(source, path, "exec"))
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        children = [c.lineno for c in ast.iter_child_nodes(node)
                    if isinstance(c, ast.stmt)]
        last = max(node.lineno, min(children) - 1) if children else node.end_lineno
        lines = range(first, last + 1)
        if executable.intersection(lines):
            out.append((first, lines))
    return sorted(out, key=lambda s: s[0])


def main(argv: list[str]) -> int:
    root = package_dir()
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(root):
            ran.setdefault(name, set())
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {os.path.realpath(name): lines for name, lines in ran.items()}
    total = 0
    for entry in sorted(os.listdir(root)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(root, entry)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        seen = ran.get(os.path.realpath(path), set())
        missed = [first for first, lines in statements(source, path)
                  if not seen.intersection(lines)]
        if missed:
            print(f"{os.path.relpath(path)}: {len(missed)} statements not run")
            for first in missed:
                print(f"  {first}: {text[first - 1].strip()}")
        total += len(missed)
    print(f"untested statements: {total}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
