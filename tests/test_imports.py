"""Every name a module imports is read somewhere in that module, every
name a package exports exists, and every atom is applied by its
descriptor, the one place that builds an atom node."""
import ast
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import conedsl
import conedsl.atoms
from conedsl import ShapeError, UnsupportedAtomError
from conedsl.atoms import AtomDescriptor, get_atom
from conedsl.canon import GraphContext, Lowerer

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
    "abs_atom", "entr", "exp", "inv_pos", "log", "logistic", "sqrt", "square",
    "lambda_max", "log_det", "log_sum_exp", "max_entries", "quad_over_lin",
    "add", "negate", "transpose", "hstack", "vstack", "diag", "matrix_trace",
}


# the atoms with params: each public name is the descriptor, whose bind
# computes and checks the params
BOUND_ATOMS = {
    "huber", "cvxr_norm", "quad_form", "mul_elemwise", "index",
    "reshape_expr", "diff", "sum_entries", "cumsum_axis", "max_elemwise",
}
# the names that CVXR defines as compositions: each is a plain function
# that builds its expression from the atoms above, and no atom has its name
COMPOSED = {"pos", "neg", "sum_squares", "min_entries", "lambda_min",
            "min_elemwise"}
ALIASES = {"abs": "abs_atom", "p_norm": "cvxr_norm",
           "elementwise_product": "mul_elemwise"}


def test_atom_nodes_are_built_only_by_descriptors():
    # AtomExpr(...) is called in atoms/ only by AtomDescriptor.__call__, so
    # every node goes through its descriptor's arity check or bind
    hits = [f"{path.name}:{node.lineno}"
            for path in sorted((SRC / "atoms").glob("*.py"))
            if path.name != "base.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "AtomExpr"]
    assert not hits, f"call the descriptor instead of AtomExpr at: {hits}"
    base = ast.parse((SRC / "atoms" / "base.py").read_text())
    calls = [f.name for f in ast.walk(base) if isinstance(f, ast.FunctionDef)
             for node in ast.walk(f) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "AtomExpr"]
    assert calls == ["__call__"]


@pytest.mark.parametrize("name", sorted(conedsl.atoms.REGISTRY)
                         + sorted(COMPOSED))
@pytest.mark.parametrize("cols", [1, 3], ids=["vector", "matrix"])
def test_registered_atom_called_with_one_variable(name, cols):
    # a node is built whole, with the params its evaluate and graph read,
    # or the call is refused with a typed error; never a KeyError on params.
    # A composition is called by its public name.
    fn = getattr(conedsl, name) if name in COMPOSED else get_atom(name)
    x = conedsl.Variable(3, cols, name="x")
    try:
        e = fn(x)
    except (TypeError, ShapeError):
        return
    e.value({x: np.arange(1.0, 3.0 * cols + 1.0).reshape(3, cols)})
    Lowerer(GraphContext()).lower(e)


def check_public_name(name):
    """The public name's object, which pickles by reference; an atom's
    is its registered descriptor, and a composition's a plain function
    that no registered atom stands for."""
    fn = getattr(conedsl, name)
    assert pickle.loads(pickle.dumps(fn)) is fn
    if name not in COMPOSED:
        assert get_atom(fn.name) is fn
        assert repr(fn) == f"<atom {fn.name}>"
        return fn
    assert name in conedsl.atoms.__all__
    assert not isinstance(fn, AtomDescriptor)
    with pytest.raises(UnsupportedAtomError, match=f"^unknown atom '{name}'$"):
        get_atom(name)
    return fn


@pytest.mark.parametrize("name", sorted(BOUND_ATOMS | {"min_elemwise"}))
def test_bound_atom_descriptor_acts_as_a_function(name):
    atom = check_public_name(name)
    x = conedsl.Variable(3, name="x")
    with pytest.raises(TypeError, match=f"^{name}\\(\\) got an unexpected "
                                        "keyword argument 'bogus'"):
        atom(x, x, bogus=1)


def test_plain_atoms_are_exported_descriptors():
    atoms = conedsl.atoms
    exported = {name for name in atoms.__all__
                if isinstance(getattr(atoms, name), AtomDescriptor)}
    assert exported == PLAIN_ATOMS | BOUND_ATOMS | set(ALIASES)
    for alias, name in ALIASES.items():
        assert getattr(atoms, alias) is getattr(atoms, name)


@pytest.mark.parametrize("name", sorted(PLAIN_ATOMS | COMPOSED
                                         - {"min_elemwise"}))
def test_plain_atom_descriptor_acts_as_a_function(name):
    atom = check_public_name(name)
    assert {atom: name}[atom] == name
    x = conedsl.Variable(2, 2, name="x")
    called, arity = (name, 1) if name in COMPOSED else (atom.name, atom.arity)
    if arity is not None:
        for count in {0, 1, 2, 3} - {arity}:
            with pytest.raises(TypeError,
                               match=f"^{called}\\(\\) (takes|missing)"):
                atom(*[x] * count)
    with pytest.raises(TypeError, match="unexpected keyword"):
        atom(x, axis=1)
