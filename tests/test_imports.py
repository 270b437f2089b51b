"""Every name a module imports is read somewhere in that module, and every
name a package exports exists."""
import ast
import re
from pathlib import Path

import pytest

import conedsl
import conedsl.atoms

SRC = Path(__file__).resolve().parent.parent / "src" / "conedsl"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC).with_suffix("")))
def test_module_reads_every_import(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    imported.pop("annotations", None)  # from __future__ import annotations
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in read)
    assert not unused, f"imported but never read: {', '.join(unused)}"


@pytest.mark.parametrize("module", [conedsl, conedsl.atoms],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # a stale entry would break `from conedsl import *`
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"__all__ names missing attributes: {missing}"


def test_readme_names_in_cones_resolve():
    # a backticked `cones.<name>` in the README must name something the
    # module has, so the prose cannot outlive a rename or a removal
    readme = (SRC.parent.parent / "README.md").read_text()
    names = set(re.findall(r"`cones\.(\w+)", readme))
    assert names, "README names nothing in cones"
    missing = sorted(n for n in names if not hasattr(conedsl.cones, n))
    assert not missing, f"README names missing from cones: {missing}"
