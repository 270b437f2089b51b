"""Atom descriptor type, registry, and the conformance table generator."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import UnsupportedAtomError
from ..expr import AtomExpr, Shape, Sign, as_expression

REGISTRY: dict[str, "AtomDescriptor"] = {}

# Atoms that exist in the wider modeling-language family but are outside
# this package's supported set. Requesting one raises a clear error
# instead of silently producing wrong curvature.
UNSUPPORTED = (
    "geo_mean", "harmonic_mean", "matrix_frac", "sigma_max", "norm_nuc",
    "sum_largest", "sum_smallest", "lambda_sum_largest", "lambda_sum_smallest",
    "tv", "mixed_norm", "kron", "conv", "bmat", "upper_tri", "kl_div",
    "log1p", "multiply_frac", "scalene",
)


def _default_sample(rng, shapes, params):
    return [rng.normals(r, c) for (r, c) in shapes]


@dataclass(eq=False)
class AtomDescriptor:
    """Metadata and behavior bundle for one atom.

    shape_out/sign_out/base_curvature/monotonicity drive the composition
    engine; evaluate gives numeric semantics; graph emits the cone
    representation of the epigraph (convex) or hypograph (concave).
    An atom marked copies_entries has no graph: each output entry is one
    argument entry or zero, and the lowering takes which from evaluate,
    run on the argument entries numbered from 1 (0 marks a zero entry).

    An atom is applied by calling its descriptor. An atom with params
    has a bind, which takes the call's arguments, checks them and returns
    the node's (args, params); a bind is defined under its atom's name,
    so Python's errors for a wrong call name the atom. An atom without a
    bind takes `arity` arguments (any number when None). Like a function,
    a descriptor compares by identity and pickles by its name.
    """

    name: str
    display: str
    shape_out: Callable
    sign_out: Callable
    base_curvature: Callable
    monotonicity: Callable
    evaluate: Callable
    graph: Callable | None = None
    copies_entries: bool = False
    sample: Callable = _default_sample
    arity: int | None = 1
    bind: Callable | None = None

    def __post_init__(self):
        REGISTRY[self.name] = self

    def __call__(self, *args, **kwargs):
        params = None
        if self.bind is not None:
            args, params = self.bind(*args, **kwargs)
        elif kwargs:
            raise TypeError(f"{self.name}() got an unexpected keyword argument "
                            f"{next(iter(kwargs))!r}")
        elif self.arity is not None and len(args) != self.arity:
            raise TypeError(f"{self.name}() takes {self.arity} argument"
                            f"{'s' if self.arity != 1 else ''}, got {len(args)}")
        return AtomExpr(self, [as_expression(a) for a in args], params)

    def __repr__(self):
        return f"<atom {self.name}>"

    def __reduce__(self):
        return get_atom, (self.name,)


def get_atom(name: str) -> AtomDescriptor:
    if name in REGISTRY:
        return REGISTRY[name]
    if name in UNSUPPORTED:
        raise UnsupportedAtomError(
            f"unsupported atom '{name}'; supported atoms are listed by atoms_table()")
    raise UnsupportedAtomError(f"unknown atom '{name}'")


def _unsupported_factory(name):
    def stub(*args, **kwargs):
        raise UnsupportedAtomError(
            f"unsupported atom '{name}'; supported atoms are listed by atoms_table()")
    stub.__name__ = name
    stub.__doc__ = f"Placeholder for the out-of-scope atom '{name}'; always raises."
    return stub


def atoms_table() -> str:
    """Markdown conformance table: one row per registered atom."""
    lines = [
        "| atom | curvature | sign | monotonicity |",
        "|------|-----------|------|--------------|",
    ]
    probe_signs = [Sign.UNKNOWN, Sign.UNKNOWN]
    for name in sorted(REGISTRY):
        d = REGISTRY[name]
        # every atom's curvature is fixed; a product's sign and
        # monotonicity follow its constant operand's sign
        curv = d.base_curvature(probe_signs, {}).value
        try:
            sign = d.sign_out(probe_signs, {}).value
        except Exception:
            sign = "data-dependent"
        try:
            monos = "/".join(m.value for m in d.monotonicity(probe_signs, {}))
        except Exception:
            monos = "data-dependent"
        lines.append(f"| {name} | {curv} | {sign} | {monos} |")
    return "\n".join(lines)


# -- small rule helpers shared by the atom modules ---------------------------

def same_shape(shapes, params):
    out = shapes[0]
    for s in shapes[1:]:
        if s != out:
            if s.is_scalar:
                continue
            if out.is_scalar:
                out = s
                continue
            from ..errors import ShapeError
            raise ShapeError(f"argument shapes {tuple(out)} and {tuple(s)} disagree")
    return out


def scalar_shape(shapes, params):
    return Shape(1, 1)


def const(x):
    return lambda signs, params: x


def monos(*ms):
    return lambda signs, params: list(ms)
