"""No test module binds one top-level name twice: a second `def test_x`
replaces the first, and pytest then never runs the first."""
import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


def top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                yield from (n.id for n in ast.walk(t)
                            if isinstance(n, ast.Name)
                            and isinstance(n.ctx, ast.Store))


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.stem)
def test_module_binds_each_top_level_name_once(path):
    names = Counter(top_level_names(ast.parse(path.read_text())))
    twice = sorted(name for name, count in names.items() if count > 1)
    assert not twice, f"bound more than once: {', '.join(twice)}"
