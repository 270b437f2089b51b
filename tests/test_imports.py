"""Every name a module imports is read somewhere in that module, every
name a package exports exists, and an atom without params is applied by
its descriptor, not by a factory that only forwards to it."""
import ast
import pickle
import re
from pathlib import Path

import pytest

import conedsl
import conedsl.atoms
from conedsl.atoms import AtomDescriptor, get_atom

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


# the atoms that take no params: each public name is the descriptor itself
PLAIN_ATOMS = {
    "abs_atom", "entr", "exp", "inv_pos", "log", "logistic", "pos", "neg",
    "sqrt", "square", "lambda_max", "lambda_min", "log_det", "log_sum_exp",
    "max_entries", "min_entries", "quad_over_lin", "sum_squares", "add",
    "negate", "transpose", "hstack", "vstack", "diag", "matrix_trace",
}


def _forwards_to_atom(fn):
    # `return AtomExpr(NAME, [...])` and nothing else: no params computed
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant):
        body = body[1:]  # a docstring
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "AtomExpr" and len(call.args) == 2
            and not call.keywords and isinstance(call.args[0], ast.Name))


def test_no_factory_only_forwards_to_an_atom():
    hits = [f"{path.name}:{node.name}"
            for path in sorted((SRC / "atoms").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and _forwards_to_atom(node)]
    assert not hits, f"call the descriptor instead of: {', '.join(hits)}"


def test_plain_atoms_are_exported_descriptors():
    atoms = conedsl.atoms
    exported = {name for name in atoms.__all__
                if isinstance(getattr(atoms, name), AtomDescriptor)}
    assert exported == PLAIN_ATOMS | {"abs"}
    assert atoms.abs is atoms.abs_atom


@pytest.mark.parametrize("name", sorted(PLAIN_ATOMS))
def test_plain_atom_descriptor_acts_as_a_function(name):
    atom = getattr(conedsl, name)
    assert get_atom(atom.name) is atom
    assert pickle.loads(pickle.dumps(atom)) is atom
    assert {atom: name}[atom] == name
    assert repr(atom) == f"<atom {atom.name}>"
    x = conedsl.Variable(2, 2, name="x")
    if atom.arity is not None:
        for count in {0, 1, 2, 3} - {atom.arity}:
            with pytest.raises(TypeError, match=f"{atom.name}\\(\\) takes"):
                atom(*[x] * count)
    with pytest.raises(TypeError, match="unexpected keyword"):
        atom(x, axis=1)
