"""List the statements of src/conedsl that the test suite never runs.

Runs the tier-1 suite in this process under `sys.settrace`, tracing only
frames whose code lives in src/conedsl, then prints each statement that
never ran (file:line and its source) and a total. Standard library only,
apart from pytest, which it runs.

    python3 tools/untested_lines.py             # the whole suite
    python3 tools/untested_lines.py tests/test_lin.py   # pytest arguments

A statement is one `ast.stmt`. It counts as run when any line of it ran;
for a compound statement (`if`, `for`, `def`, ...) only its header lines
count, with a function's or class's decorators. Docstrings and `global`
statements compile to no line of their own and are not counted, nor are
`try:` headers. Code that runs only in a forked child process is not
seen, so it is reported as never run.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "conedsl"

_BODY_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")
_UNCOUNTED = (ast.Try, ast.Global, ast.Nonlocal)


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _children(node) -> list:
    """The statements (or except and case clauses) node holds directly."""
    return [child for f in _BODY_FIELDS
            if isinstance(getattr(node, f, None), list)
            for child in getattr(node, f)]


def _span(node) -> range:
    """The lines whose running counts as running node."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    inner = _children(node)
    if not inner:
        return range(first, node.end_lineno + 1)
    return range(first, max(first, min(c.lineno for c in inner) - 1) + 1)


def statements(path: Path) -> list:
    """(line, span) of each counted statement of a module."""
    tree = ast.parse(path.read_text(), str(path))
    out = []
    for parent in ast.walk(tree):
        for node in _children(parent):
            if (isinstance(node, ast.stmt)
                    and not isinstance(node, _UNCOUNTED)
                    and not _is_docstring(node, parent)):
                out.append((node.lineno, _span(node)))
    return sorted(out)


def run_traced(pytest_args) -> tuple[dict, int]:
    """Run pytest under the tracer; the lines each package file ran, and
    pytest's exit code."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    sys.path.insert(0, str(SRC))
    import pytest  # imported before tracing starts, and conedsl after

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits, int(code)


def main(argv) -> int:
    hits, code = run_traced(argv)
    total = missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = hits.get(str(path), set())
        lines = path.read_text().splitlines()
        for line, span in statements(path):
            total += 1
            if ran.isdisjoint(span):
                missed += 1
                rel = path.relative_to(ROOT)
                print(f"{rel}:{line}: {lines[line - 1].strip()}")
    print(f"{missed} of {total} statements in {PACKAGE.relative_to(ROOT)} "
          f"never ran (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
