"""List the statements of ``src/varleb`` that a pytest run never executes.

    python3 tools/line_coverage.py [PYTEST ARGS ...]

It runs pytest in this process, with the given arguments, under
``sys.settrace`` and ``threading.settrace``, with this checkout's ``src/``
first on ``sys.path``.  Only frames whose code lives in ``src/varleb``
get a line tracer; every other frame is left untraced.  After the run it
prints, per file and in line order, each statement that never ran as
``path:line: source``, then a count.  CPython removes a tracer that
raises, as it does in a test that runs out of stack, so the tracer is
installed again before each test where it is gone; stderr says before
how many.  A statement counts as run when a line event fell on one of
its own lines: all of its lines for a simple statement, the header lines
for a compound one.  Docstrings, ``def`` and ``class`` headers, imports
and statements that compile to no bytecode are not listed.  Child
processes (the tests that start the CLI with ``subprocess``) are not
traced, so what only they run is listed as never run.  The exit code is
pytest's.

It needs only the standard library and pytest, and a traced run takes
about twice as long as a plain one.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.realpath(os.path.join(ROOT, "src", "varleb"))


def own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not lines of a nested statement."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(node.lineno, max(body[0].lineno, node.lineno + 1))
    return range(node.lineno, node.end_lineno + 1)


def code_lines(code: types.CodeType) -> set[int]:
    """The lines that some instruction of ``code`` or its nested code sits on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def statements(path: str) -> list[ast.stmt]:
    """The statements of the module at ``path`` that are listed when they
    never run."""
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    compiled = code_lines(compile(source, path, "exec"))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        first = body[0] if isinstance(body, list) and body else None
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.add(first)
    skipped = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, skipped)
            and node not in docstrings and compiled.intersection(own_lines(node))]


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and per traced file the lines that ran."""
    hits: dict[str, set[int]] = {}
    traced: dict[str, set[int] | None] = {}  # co_filename -> its hit set, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        lines = traced.get(name, False)
        if lines is False:
            path = os.path.realpath(name)
            lines = hits.setdefault(path, set()) if os.path.dirname(path) == PACKAGE else None
            traced[name] = lines
        if lines is None:
            return None

        def line_tracer(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line_tracer
        return line_tracer

    class Rearm:
        """A pytest plugin: the tracer, installed again where it is gone."""
        tests = rearmed = 0

        def pytest_runtest_logstart(self):
            Rearm.tests += 1
            if sys.gettrace() is not tracer:
                Rearm.rearmed += 1
                threading.settrace(tracer)
                sys.settrace(tracer)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args, plugins=[Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"tracer installed again before {Rearm.rearmed} of {Rearm.tests} tests",
          file=sys.stderr)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = run_traced(argv)
    missed = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        ran = hits.get(os.path.realpath(path), set())
        with open(path) as fh:
            source = fh.read().splitlines()
        stmts = statements(path)
        total += len(stmts)
        for node in sorted(stmts, key=lambda n: n.lineno):
            if ran.isdisjoint(own_lines(node)):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{node.lineno}: "
                      f"{source[node.lineno - 1].strip()}")
    print(f"{missed} of {total} statements in src/varleb never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
