"""List the statements of ``src/implylogic`` that no test executes.

Runs the test suite (``python -m pytest -q --continue-on-collection-errors``
from the repository root) in this process under ``sys.settrace``, tracing
only frames whose code lives in ``src/implylogic``, then prints every
statement that never ran as ``file:line: source``.  Statements come from
``ast``; docstrings are not statements here, nor is the body of an ``if
TYPE_CHECKING:`` block, which only a type checker reads.  Code that a test
runs in a subprocess (``python -m implylogic.cli``, scripts) is not traced,
so a statement that only such a run reaches is listed.  Standard library
and pytest only.

    python scripts/uncovered.py [extra pytest arguments]

Tracing makes the suite 3 to 4 times slower than a plain run.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "implylogic")

#: the tests of an ``if`` whose body only a type checker reads
TYPE_CHECKING_TESTS = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not lines of a statement nested in it:
    a simple statement's every line, a compound statement's head (decorators
    included)."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(start, body[0].lineno) or range(node.lineno, node.lineno + 1)
    return range(start, node.end_lineno + 1)


def statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement of a module's syntax tree except docstrings and what an
    ``if TYPE_CHECKING:`` block holds."""
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    typing_only = {inner for node in ast.walk(tree)
                   if isinstance(node, ast.If) and ast.unparse(node.test) in TYPE_CHECKING_TESTS
                   for stmt in node.body for inner in ast.walk(stmt)}
    return sorted((node for node in ast.walk(tree) if isinstance(node, ast.stmt)
                   and node not in docstrings and node not in typing_only),
                  key=lambda node: node.lineno)


def traced_run(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code for ``args`` and the (file, line) pairs run in ``SRC``."""
    import pytest

    executed: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.abspath(name).startswith(SRC + os.sep)
        if ours[name]:
            executed.add((name, frame.f_lineno))
            return local
        return None

    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), {(os.path.abspath(name), line) for name, line in executed}


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    code, executed = traced_run(["-q", "--continue-on-collection-errors",
                                 "-p", "no:cacheprovider", *argv])
    missed = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        source = text.splitlines()
        for node in statements(ast.parse(text, path)):
            if not any((path, line) in executed for line in own_lines(node)):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{node.lineno}: "
                      f"{source[node.lineno - 1].strip()}")
    print(f"{missed} statements not executed (pytest exit code {code})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
