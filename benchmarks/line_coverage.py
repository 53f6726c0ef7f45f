"""Statements of ``tramopt`` that no test runs.

    python3 benchmarks/line_coverage.py --src src [-- PYTEST ARGUMENT ...]

It imports ``tramopt`` from ``--src`` and runs ``pytest.main`` in this
process (by default on this checkout's ``tests/``, as the Tier-1 command
does) under a ``sys.settrace`` hook that traces only frames whose code lies
in ``--src``'s ``tramopt/``.  Then, for each module, it prints the AST
statements that no test ran, one line each, and a total.  Docstrings,
``def`` and ``class`` statements and imports are not counted: they run on
import.  A compound statement (``if``, ``for``, ``with``, ``try``, ...)
counts as run when a line of its header or its first body statement ran.

Two limits:

* ``--jobs`` workers are spawned processes and are not traced, so what
  only a worker runs is listed as not run.  The worker path runs the same
  ``PolicyEvaluator.score`` that the in-process tests run.
* Hypothesis draws new examples on every run, so the statements a fuzz
  test reaches, mostly rejections in ``network.py``, change from run to
  run.

Needs only the standard library and pytest.  Tracing makes the suite about
1.5 times as slow.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tracer(package: str, executed: dict[str, set[int]]):
    """A ``settrace`` hook recording the lines run in files under ``package``."""

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        # at interpreter shutdown a frame may carry no file name
        if not isinstance(filename, str) or not filename.startswith(package):
            return None
        return local

    return trace


def _counted(tree: ast.Module):
    """The statements of a module that count, in source order."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(id(first))
    skipped = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    stmts = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, skipped) and id(node) not in docstrings
    ]
    return sorted(stmts, key=lambda node: (node.lineno, node.col_offset))


def _ran(node: ast.stmt, lines: set[int]) -> bool:
    body = getattr(node, "body", None)
    if body:
        header = range(node.lineno, body[0].lineno)
        return any(n in lines for n in header) or _ran(body[0], lines)
    return any(n in lines for n in range(node.lineno, node.end_lineno + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="the src/ directory of a tree")
    parser.add_argument("pytest_args", nargs="*", help="passed to pytest (default: this checkout's tests)")
    args = parser.parse_args()
    src = args.src.resolve()
    package_dir = src / "tramopt"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"{src} holds no tramopt package")
    sys.path.insert(0, str(src))
    import pytest

    executed: dict[str, set[int]] = defaultdict(set)
    trace = _tracer(str(package_dir) + os.sep, executed)
    pytest_args = args.pytest_args or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)

    import tramopt

    if package_dir not in Path(tramopt.__file__).resolve().parents:
        raise SystemExit(f"imported {tramopt.__file__}, not a module under {package_dir}")
    total = missed = 0
    print()
    for path in sorted(package_dir.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        stmts = _counted(ast.parse(source))
        not_run = [node for node in stmts if not _ran(node, executed.get(str(path), set()))]
        total += len(stmts)
        missed += len(not_run)
        print(f"tramopt/{path.name}: {len(not_run)} of {len(stmts)} statements not run")
        for node in not_run:
            print(f"  {path.name}:{node.lineno}  {lines[node.lineno - 1].strip()[:80]}")
    print(f"total: {missed} of {total} statements not run (pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
